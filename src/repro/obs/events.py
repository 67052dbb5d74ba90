"""The structured event record every observability sink consumes.

An event is the smallest unit of "something happened in the machine":
a token matched, an instruction fired, a packet was delivered, a read
deferred on a presence bit.  The fields mirror the tuple the original
``TraceLog`` ring buffer stored — ``(time, source, kind, detail)`` —
plus an open ``fields`` dict for typed measurements (service durations,
latencies, queue depths) that the Chrome-trace exporter turns into
duration events and the JSONL sink serializes verbatim.

``source`` identifies the hardware unit: a PE number (int) for the
dataflow machine, a processor id for the von Neumann models, or a short
string (``"net"``, ``"sim"``, ``"-"``) for shared components.
"""

__all__ = ["TraceEvent", "KINDS"]

#: The event taxonomy (documented in docs/OBSERVABILITY.md).  Emitters are
#: not restricted to this set, but everything the built-in instrumentation
#: produces is listed here so sinks and tests can rely on the names.
KINDS = (
    # Tagged-token dataflow machine
    "exec",        # instruction fired in a PE's ALU (dur = ALU service time)
    "match",       # waiting-matching store completed an activity
    "park",        # token parked awaiting its partner
    "alloc",       # PE controller allocated an I-structure
    "route",       # output section handed a token to the interconnect
    "result",      # RETURN consumed the halt continuation
    # I-structure controller
    "is_read",     # read satisfied immediately
    "is_defer",    # read deferred on an unset presence bit
    "is_write",    # write performed (fields: drained = readers released)
    # Packet networks
    "net_inject",  # packet entered the network
    "net_deliver", # packet delivered (fields: latency, hops)
    "net_combine", # omega switch combined two FETCH-AND-ADD packets
    "net_split",   # omega switch split a combined reply
    # von Neumann processors
    "vn_exec",     # instruction issued (fields: op)
    "vn_stall",    # memory reference completed (fields: dur = stall cycles)
    "vn_retry",    # full/empty RETRY response, busy-wait re-issue
    "vn_switch",   # multithreaded processor switched hardware contexts
    "vn_halt",     # processor halted
    # Kernel
    "run_begin",   # Simulator.run() entered (fields: pending)
    "quiescent",   # event queue drained; quiescence hooks consulted
    "run_end",     # Simulator.run() returned (fields: events)
    # Fault injector (repro.faults; source = "faults")
    "fault_net_delay",  # packet delivery delayed (fields: dur)
    "fault_mem_slow",   # memory bank served a response late (fields: dur)
    "fault_mem_fail",   # transient bank failure; requester retries
                        # (fields: backoff)
    "fault_pe_stall",   # PE held its enabled instruction (fields: dur)
    "fault_pe_crash",   # PE dropped its instruction; re-fired after
                        # backoff (fields: backoff)
    # Sweep engine (repro.exp; time = wall seconds since sweep start)
    "sweep_begin", # a parameter sweep started (fields: configs, jobs)
    "sweep_task",  # one grid point finished (fields: index, status,
                   # attempts, cached, wall)
    "sweep_end",   # sweep finished (fields: ok, failed, cached, wall,
                   # workers = processes forked for it, 0 inline)
    # Sweep service (repro.serve; source = "serve", time = wall seconds
    # since the scheduler started)
    "serve_request",      # a sweep request was accepted (fields: sweep,
                          # experiment, cells)
    "serve_store_hit",    # a cell was answered from the durable store
                          # (fields: sweep, index)
    "serve_predict_hit",  # a cell was answered by the analytic surrogate
                          # (repro.predict; fields: sweep, index)
    "serve_assign",       # a cell was handed to a worker (fields: sweep,
                          # index, worker, attempt, backup)
    "serve_backup",       # a straggler cell was re-issued to an idle
                          # worker (fields: sweep, index, worker)
    "serve_requeue",      # an in-flight cell went back on the queue
                          # (fields: sweep, index, attempt, reason)
    "serve_worker_spawn", # a pool worker process started (fields: worker)
    "serve_worker_exit",  # a pool worker died or was terminated
                          # (fields: worker, reason)
    "serve_sweep_done",   # every cell of a sweep completed (fields:
                          # sweep, ok, failed, cached, executed, wall)
    # Worker flight recorder (repro.serve.protocol; source =
    # "worker<N>", time = wall seconds since the task began; every
    # event carries the sweep's trace id)
    "flight_begin",    # a task arrived (fields: trace, sweep, index,
                       # attempt, backup task flag when set)
    "flight_resolve",  # the run function resolved (import/memo)
    "flight_run",      # the run function was entered
    "flight_done",     # the run returned a value
    "flight_error",    # the run raised (detail = last traceback line)
    "flight_fatal",    # the run hit an operator interrupt / resource
                       # exhaustion (never retried; the worker exits)
)


class TraceEvent:
    """One structured observation at a simulated instant."""

    __slots__ = ("time", "source", "kind", "detail", "fields")

    def __init__(self, time, source, kind, detail="", fields=None):
        self.time = time
        self.source = source
        self.kind = kind
        self.detail = detail
        self.fields = fields

    def as_tuple(self):
        """The legacy ``TraceLog`` record shape."""
        return (self.time, self.source, self.kind, self.detail)

    def to_json_dict(self):
        """A flat, JSON-serializable dict (stable key order via sort)."""
        record = {
            "t": self.time,
            "src": self.source,
            "kind": self.kind,
            "detail": self.detail,
        }
        if self.fields:
            record.update(self.fields)
        return record

    def __repr__(self):
        return (
            f"TraceEvent(t={self.time}, src={self.source!r}, "
            f"kind={self.kind!r}, detail={self.detail!r})"
        )
