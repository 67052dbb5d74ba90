"""The sweep executor: fan a grid out across a pool of worker processes.

Each sweep forks a pool of at most ``min(jobs, pending cells)``
persistent workers.  A worker inherits the :class:`Experiment` through
fork and serves grid indices over a duplex pipe until the parent tells
it to stop, so per-process warm state (lazy imports, compiled programs,
memo tables) is paid once per worker rather than once per cell — the
same sharing every cell gets under ``jobs=0``.  Idle workers take the
next cell at once, so the wall clock approaches ``serial_time / jobs``
for uniform grids.  No worker outlives :func:`run_experiment`.

Per-run timeouts are still *enforced*: the deadline starts when a cell
is dispatched, and the worker reports a ``begin`` handshake as it enters
the run function.  A cell dispatched but not yet begun is in the
``startup`` phase (which includes the fork only for a worker's first
cell); after ``begin`` it is in ``run``.  An expired worker is
terminated and replaced, the cell retried, and a timeout row records the
phase it died in (``RunRecord.timeout_phase``).  An exception in a cell
becomes an ``error`` row and the worker stays alive; a ``fatal`` outcome
(:data:`FATAL_EXCEPTIONS`) or a worker death retires the process and a
fresh one serves the remaining cells.

Determinism contract: records are returned in grid order, and a run's
value depends only on its config (the :class:`Experiment` purity rule),
so ``--jobs 1`` and ``--jobs 4`` produce identical values —
:func:`records_payload` (without timing) is byte-identical JSON.

With a :class:`~repro.exp.cache.SqliteStore` attached, each config is
looked up by content hash of (experiment, config, code-version) first;
hits never reach a worker.  Progress streams through a
:class:`repro.obs.TraceBus` as ``sweep_begin`` / ``sweep_task`` /
``sweep_end`` events.

The retry-aware work list lives in :class:`TaskQueue` so the long-lived
sweep service (:mod:`repro.serve.scheduler`) schedules from the same
structure the batch engine does.
"""

import collections
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Optional

from .cache import config_key, repro_fingerprint

__all__ = ["RunRecord", "TaskQueue", "experiment_code_version",
           "records_payload", "run_experiment"]

#: Statuses a run can end in.  ``ok`` is the only cached one.
#: ``fatal`` marks operator interrupts / resource exhaustion inside a
#: worker (KeyboardInterrupt, SystemExit, MemoryError): the traceback is
#: preserved in the failure row but the attempt is never retried.
STATUSES = ("ok", "error", "timeout", "fatal")

#: Exceptions that must not be swallowed into a retried ``error`` row.
FATAL_EXCEPTIONS = (KeyboardInterrupt, SystemExit, MemoryError)

#: Extra attempts a failed run gets before a failure row is recorded
#: (shared default between the batch engine and the sweep service).
DEFAULT_RETRIES = 1

#: The lifecycle phases a worker attempt moves through.  ``startup``
#: runs from dispatch to the worker's ``begin`` handshake (including the
#: fork for a worker's first cell), ``run`` is the run function itself;
#: a timeout records the phase it struck.
PHASES = ("startup", "run")


@dataclass
class RunRecord:
    """The structured outcome of one grid point."""

    index: int
    config: dict
    status: str = "ok"
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    wall_seconds: float = 0.0
    cached: bool = False
    cache_key: Optional[str] = None
    #: For ``status == "timeout"``: the phase the final attempt was in
    #: when the deadline struck (``"startup"`` or ``"run"``).
    timeout_phase: Optional[str] = None
    #: For failed cells run under the sweep service: the tail of the
    #: worker's flight recorder (a bounded list of breadcrumb dicts) so
    #: post-mortems need no re-run.  Omitted from :meth:`payload` when
    #: absent, keeping successful rows byte-identical to older runs.
    flight: Optional[list] = None
    #: The cell was answered by the analytic surrogate
    #: (:mod:`repro.predict`) instead of a simulation run.  Only present
    #: in :meth:`payload` when True — simulated rows stay byte-identical.
    predicted: bool = False

    @property
    def ok(self):
        return self.status == "ok"

    def payload(self, include_timing=True):
        """A JSON-able dict; drop wall-clock noise for byte-identical
        comparisons across job counts."""
        out = {
            "index": self.index,
            "config": self.config,
            "status": self.status,
            "value": self.value,
            "error": self.error,
            "attempts": self.attempts,
            "cached": self.cached,
        }
        if self.timeout_phase is not None:
            out["timeout_phase"] = self.timeout_phase
        if self.flight is not None:
            out["flight"] = self.flight
        if self.predicted:
            out["predicted"] = True
        if include_timing:
            out["wall_seconds"] = round(self.wall_seconds, 3)
        return out


def records_payload(records, include_timing=False):
    """The canonical JSON-able form of a sweep's records (grid order)."""
    ordered = sorted(records, key=lambda record: record.index)
    return [record.payload(include_timing=include_timing)
            for record in ordered]


class TaskQueue:
    """A retry-aware FIFO of work items with optional requeue delays.

    Items are opaque tuples; the queue only orders them.  ``push`` adds
    an item ready immediately (or at ``not_before``), ``pop`` returns
    the oldest ready item or ``None``, and ``next_ready`` tells a
    scheduler how long it may sleep before new work matures.  Both the
    batch engine below and the long-running sweep service
    (:mod:`repro.serve.scheduler`) drive their workers from this.
    """

    __slots__ = ("_ready", "_delayed")

    def __init__(self):
        self._ready = collections.deque()
        self._delayed = []  # [(not_before, item)] — small, scanned linearly

    def __len__(self):
        return len(self._ready) + len(self._delayed)

    def __bool__(self):
        return bool(self._ready) or bool(self._delayed)

    def push(self, item, front=False, not_before=None):
        """Add ``item``; ``front`` jumps the FIFO (inline retries),
        ``not_before`` (a monotonic timestamp) delays maturity."""
        if not_before is not None:
            self._delayed.append((not_before, item))
        elif front:
            self._ready.appendleft(item)
        else:
            self._ready.append(item)

    def _mature(self, now):
        if not self._delayed:
            return
        due = [pair for pair in self._delayed if pair[0] <= now]
        if due:
            self._delayed = [p for p in self._delayed if p[0] > now]
            for _, item in sorted(due, key=lambda pair: pair[0]):
                self._ready.append(item)

    def pop(self, now=None):
        """The oldest ready item, or ``None`` if none has matured."""
        self._mature(time.monotonic() if now is None else now)
        return self._ready.popleft() if self._ready else None

    def next_ready(self, now=None):
        """Seconds until a delayed item matures (0 if one is ready now,
        ``None`` when the queue is empty)."""
        now = time.monotonic() if now is None else now
        self._mature(now)
        if self._ready:
            return 0.0
        if not self._delayed:
            return None
        return max(0.0, min(t for t, _ in self._delayed) - now)


def experiment_code_version(experiment):
    """The code-version stamp cache keys carry for ``experiment``: the
    repro package fingerprint plus any ``code_paths`` the experiment
    names (its benchmark module, typically).  Shared by the batch engine
    and the sweep service so their cache keys agree."""
    version = repro_fingerprint()
    if experiment.code_paths:
        from .cache import code_fingerprint

        version += "+" + code_fingerprint(
            *[os.path.abspath(p) for p in experiment.code_paths])
    return version


def cell_failure(body, *args):
    """Call ``body(*args)`` as one cell attempt inside a worker process.

    Returns ``None`` when it returns, else ``(status, traceback)``:
    ``fatal`` for :data:`FATAL_EXCEPTIONS` (recorded, never retried, and
    the worker must exit), ``error`` for anything else.  The batch
    engine's pool and the sweep service's pool
    (:func:`repro.serve.protocol.pool_worker_main`) share this rule.
    """
    try:
        body(*args)
        return None
    except FATAL_EXCEPTIONS:
        return "fatal", traceback.format_exc()
    except BaseException:  # noqa: BLE001 — parent turns this into a row
        return "error", traceback.format_exc()


def _serve_cell(conn, run, config):
    # The ``begin`` handshake marks the startup→run phase transition so
    # the parent can attribute a timeout to worker startup versus the
    # run function itself.
    conn.send(("begin", None, None))
    conn.send(("ok", run(config), None))


def _worker_main(conn, run, grid):
    """Pool-process body: run the grid indices the parent sends, one at
    a time, until it sends ``None`` or the pipe closes.

    Anything a cell leaves in this process (imports, memo tables) is
    warm for the next cell, exactly as in the inline path.  A ``fatal``
    outcome ends the loop so the process does not pick up more work.
    """
    import sys

    try:
        while True:
            try:
                index = conn.recv()
            except (EOFError, OSError):
                return
            if index is None:
                return
            failure = cell_failure(_serve_cell, conn, run, grid[index])
            if failure is None:
                continue
            status, trace = failure
            try:
                conn.send((status, None, trace))
            except (OSError, ValueError):
                # The pipe is gone (parent died / timed us out) or closed
                # — nothing structured can be shipped, but don't silently
                # eat the diagnostic: the parent records "worker exited
                # without a result", so leave the traceback on stderr.
                print(trace, file=sys.stderr)
                return
            if status == "fatal":
                return
    finally:
        conn.close()


class _Worker:
    """One pool process and the cell it is serving (``None`` when idle)."""

    __slots__ = ("process", "conn", "cell", "started", "deadline", "phase")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.cell = None

    def dispatch(self, cell, started, timeout):
        """Hand ``(index, attempt, key)`` over; the clock runs from
        ``started``."""
        self.cell = cell
        self.started = started
        self.deadline = (started + timeout) if timeout else None
        self.phase = "startup"
        _send(self.conn, cell[0])

    def retire(self, kill=False):
        """Join the process (terminating it first if ``kill``) and close
        its pipe."""
        if kill:
            self.process.terminate()
        self.process.join()
        self.conn.close()


def _fork_worker(context, experiment, serial):
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_worker_main,
        args=(child_conn, experiment.run, experiment.grid),
        name=f"sweep-{experiment.name}-{serial}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _Worker(process, parent_conn)


def _send(conn, message):
    try:
        conn.send(message)
    except OSError:
        pass  # a dead worker shows up as EOF on its next wait


def _recv(conn):
    """One message off a worker pipe, or None on EOF/breakage."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return None


def _emit(bus, clock_start, kind, detail="", **fields):
    if bus is not None:
        bus.emit(round(time.monotonic() - clock_start, 6), "sweep", kind,
                 detail, **fields)


def run_experiment(experiment, jobs=None, cache=None, timeout=None,
                   retries=DEFAULT_RETRIES, bus=None, progress=None):
    """Execute every config in ``experiment.grid``; returns RunRecords
    in grid order.

    ``jobs``: most worker processes alive at once (default
    ``os.cpu_count()``); ``0`` runs the grid inline in this process (no
    isolation, no timeout — the debugging path).  ``timeout``: seconds
    per attempt from dispatch (including the fork for a worker's first
    cell); ``0`` or ``None`` sets no deadline.  An expired worker is
    terminated and replaced, and the run retried up to ``retries`` more
    times before a ``timeout`` record is written.  Negative ``jobs`` or
    ``timeout`` raise :class:`ValueError`.
    ``cache``: a result store with the
    :class:`~repro.exp.cache.SqliteStore` ``get``/``put`` interface;
    hits skip execution entirely.  ``bus``: a :class:`repro.obs.TraceBus`
    for progress telemetry.  ``progress``: callable invoked with each
    finished :class:`RunRecord`.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if timeout is not None and timeout < 0:
        raise ValueError(f"timeout must be >= 0, got {timeout}")
    clock_start = time.monotonic()
    code_version = (experiment_code_version(experiment)
                    if cache is not None else None)

    records = {}
    pending = TaskQueue()
    forked = 0  # worker processes started for this sweep
    _emit(bus, clock_start, "sweep_begin", experiment.name,
          configs=len(experiment.grid), jobs=jobs)

    def finish(record):
        records[record.index] = record
        fields = dict(index=record.index, status=record.status,
                      attempts=record.attempts, cached=record.cached,
                      wall=round(record.wall_seconds, 4))
        if record.error:
            # Surface the failure cause on the bus (last traceback line),
            # not just in the structured row — so a live `repro bench`
            # progress stream shows *why* a grid point failed.
            fields["error"] = record.error.strip().splitlines()[-1][:200]
        _emit(bus, clock_start, "sweep_task",
              f"{experiment.name}[{record.index}] {record.status}",
              **fields)
        if progress is not None:
            progress(record)

    # ------------------------------------------------------------------
    # cache pass
    for index, config in enumerate(experiment.grid):
        key = None
        if cache is not None:
            key = config_key(experiment.name, config, code_version)
            found, value = cache.get(experiment.name, key)
            if found:
                finish(RunRecord(index=index, config=config, status="ok",
                                 value=value, cached=True, cache_key=key))
                continue
        pending.push((index, 0, key))

    def record_outcome(index, attempt, key, message, wall, phase=None):
        status, value, error = message
        config = experiment.grid[index]
        if status == "ok":
            if cache is not None:
                cache.put(experiment.name, key, config, code_version, value)
            finish(RunRecord(index=index, config=config, status="ok",
                             value=value, attempts=attempt + 1,
                             wall_seconds=wall, cache_key=key))
            return None
        if status != "fatal" and attempt < retries:
            return (index, attempt + 1, key)  # reschedule
        finish(RunRecord(index=index, config=config, status=status,
                         error=error, attempts=attempt + 1,
                         wall_seconds=wall, cache_key=key,
                         timeout_phase=phase if status == "timeout" else None))
        return None

    # ------------------------------------------------------------------
    # inline path (jobs=0): no processes, no timeout enforcement
    if jobs == 0:
        while pending:
            index, attempt, key = pending.pop()
            started = time.monotonic()
            try:
                message = ("ok", experiment.run(experiment.grid[index]), None)
            except FATAL_EXCEPTIONS:
                # Operator interrupts and resource exhaustion must stop
                # the whole sweep, not become a retried failure row.
                raise
            except Exception:
                # Anything the run itself raises becomes a structured
                # failure row (and a bus event via finish) — the inline
                # path mirrors the worker-process path's contract.
                message = ("error", None, traceback.format_exc())
            retry = record_outcome(index, attempt, key, message,
                                   time.monotonic() - started)
            if retry is not None:
                pending.push(retry, front=True)
    else:
        # Fork where available: workers inherit the experiment and the
        # parent's imports instead of re-importing them.
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        pool = []  # live workers, idle ones have ``cell is None``
        try:
            while True:
                while pending:
                    worker = next((w for w in pool if w.cell is None), None)
                    # The clock starts before a fork, so a fresh worker's
                    # start-up is charged to its first cell's budget.
                    started = time.monotonic()
                    if worker is None:
                        if len(pool) >= jobs:
                            break
                        worker = _fork_worker(context, experiment, forked)
                        forked += 1
                        pool.append(worker)
                    worker.dispatch(pending.pop(), started, timeout)
                busy = [w for w in pool if w.cell is not None]
                if not busy:
                    break

                now = time.monotonic()
                deadlines = [w.deadline for w in busy if w.deadline]
                wait_for = min(deadlines) - now if deadlines else None
                ready = _wait_connections(
                    [w.conn for w in busy],
                    timeout=(max(0.0, wait_for) if wait_for is not None
                             else None),
                )

                now = time.monotonic()
                for worker in busy:
                    cell, phase = worker.cell, None
                    if worker.conn in ready:
                        message = _recv(worker.conn)
                        if message is not None and message[0] == "begin":
                            # Startup handshake: the worker entered its
                            # run function — not a completion, keep waiting.
                            worker.phase = "run"
                            continue
                        if message is None or message[0] == "fatal":
                            # The process died (EOF) or is exiting after a
                            # fatal row: reap it, a fresh one takes over.
                            pool.remove(worker)
                            worker.retire()
                        else:
                            worker.cell = None  # idle again
                        if message is None:
                            code = worker.process.exitcode
                            message = ("error", None,
                                       f"worker exited without a result "
                                       f"(exit code {code})")
                    elif worker.deadline and now >= worker.deadline:
                        phase = worker.phase
                        pool.remove(worker)
                        worker.retire(kill=True)
                        message = ("timeout", None,
                                   f"run exceeded {timeout}s (in {phase} "
                                   f"phase) and was terminated")
                    else:
                        continue
                    index, attempt, key = cell
                    retry = record_outcome(index, attempt, key, message,
                                           now - worker.started, phase=phase)
                    if retry is not None:
                        pending.push(retry)
            for worker in pool:
                _send(worker.conn, None)  # stop
            while pool:
                pool.pop().retire()
        finally:
            # Reached with workers left only when something raised: no
            # worker outlives the sweep.
            while pool:
                pool.pop().retire(kill=True)

    ordered = [records[index] for index in sorted(records)]
    _emit(bus, clock_start, "sweep_end", experiment.name,
          ok=sum(1 for r in ordered if r.ok),
          failed=sum(1 for r in ordered if not r.ok),
          cached=sum(1 for r in ordered if r.cached),
          workers=forked,
          wall=round(time.monotonic() - clock_start, 4))
    return ordered
