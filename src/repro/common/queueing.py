"""A single-server FIFO queue — the workhorse of every timed resource.

Network links, crossbar output ports, memory modules, buses: all are
modelled as a server that holds one item at a time for a service time and
keeps arrivals in FIFO order.  Completion hands the item to a callback.

This sits on the hot path of every machine model, so it is deliberately
lean: a ``deque`` (O(1) at both ends, unlike ``list.pop(0)``), the
fire-and-forget ``post`` scheduling fast path, and ``__slots__``.  The
queue-depth integral and the busy time live in the server's own fields,
updated inline with the same float operations, in the same order, as
:class:`~repro.common.stats.TimeWeighted` and
:class:`~repro.common.stats.UtilizationTracker` would perform; the
``queue_depth`` and ``utilization`` attributes are read-only views with
those classes' read API.
"""

from collections import deque

__all__ = ["FifoServer"]


class FifoServer:
    """One resource serving one item at a time, FIFO.

    Queue depth counts items *waiting*: an item submitted to an idle
    server with an empty queue goes straight into service and never
    raises the depth.
    """

    __slots__ = ("sim", "service_time", "name", "_queue", "_busy",
                 "items_served",
                 # queue depth over time (TimeWeighted's fields)
                 "_depth", "_depth_at", "_depth_area", "_depth_span",
                 "_depth_max",
                 # busy time (UtilizationTracker's fields)
                 "_busy_since", "_busy_total", "_operations")

    def __init__(self, sim, service_time, name="server"):
        self.sim = sim
        self.service_time = service_time
        self.name = name
        self._queue = deque()
        self._busy = False
        self.items_served = 0
        self._depth = 0.0
        self._depth_at = 0.0
        self._depth_area = 0.0
        self._depth_span = 0.0
        self._depth_max = 0.0
        self._busy_since = None
        self._busy_total = 0.0
        self._operations = 0

    def submit(self, item, on_done, service_time=None):
        """Enqueue ``item``; call ``on_done(item)`` when service completes."""
        queue = self._queue
        if self._busy:
            queue.append((item, on_done, service_time))
            now = self.sim._now
            dt = now - self._depth_at
            if dt < 0:
                raise ValueError(
                    f"time moved backwards: {self._depth_at} -> {now}")
            self._depth_area += self._depth * dt
            self._depth_span += dt
            self._depth_at = now
            depth = self._depth = float(len(queue))
            if depth > self._depth_max:
                self._depth_max = depth
        elif queue:
            # Only inside ``on_done`` of a completion that left items
            # waiting: this item queues behind them.
            queue.append((item, on_done, service_time))
            self._start_next()
        else:
            # Idle and nothing waiting: straight into service.  The depth
            # stays 0.0, so its integral only advances the clock.
            sim = self.sim
            now = sim._now
            dt = now - self._depth_at
            if dt < 0:
                raise ValueError(
                    f"time moved backwards: {self._depth_at} -> {now}")
            self._depth_span += dt
            self._depth_at = now
            self._busy = True
            self._busy_since = now
            self._operations += 1
            sim.post(self.service_time if service_time is None
                     else service_time, self._complete, item, on_done)

    def _start_next(self):
        """Serve the head of the (non-empty) queue on this idle server."""
        queue = self._queue
        item, on_done, service_time = queue.popleft()
        sim = self.sim
        now = sim._now
        dt = now - self._depth_at
        if dt < 0:
            raise ValueError(f"time moved backwards: {self._depth_at} -> {now}")
        self._depth_area += self._depth * dt
        self._depth_span += dt
        self._depth_at = now
        depth = self._depth = float(len(queue))
        if depth > self._depth_max:
            self._depth_max = depth
        self._busy = True
        self._busy_since = now
        self._operations += 1
        sim.post(self.service_time if service_time is None else service_time,
                 self._complete, item, on_done)

    def _complete(self, item, on_done):
        if not self._busy:
            raise ValueError("UtilizationTracker.end() without matching begin()")
        self._busy_total += self.sim._now - self._busy_since
        self._busy = False
        self.items_served += 1
        on_done(item)
        # on_done may have resubmitted synchronously
        if not self._busy and self._queue:
            self._start_next()

    @property
    def queue_depth(self):
        """Items waiting over time (``current``, ``max``, ``mean()``)."""
        return _DepthView(self)

    @property
    def utilization(self):
        """Busy time (``busy_time()``, ``utilization()``, ``operations``)."""
        return _BusyView(self)

    @property
    def queued(self):
        return len(self._queue)

    @property
    def busy(self):
        return self._busy

    def __repr__(self):
        return (
            f"<FifoServer {self.name!r} queued={self.queued} busy={self._busy} "
            f"served={self.items_served}>"
        )


class _DepthView:
    """Live read-only view of a server's queue depth, with the read API
    of :class:`~repro.common.stats.TimeWeighted`."""

    __slots__ = ("_server",)

    def __init__(self, server):
        self._server = server

    @property
    def current(self):
        return self._server._depth

    @property
    def max(self):
        return self._server._depth_max

    def mean(self, end_time=None):
        """Time-weighted mean, optionally extending the last value to
        ``end_time``."""
        s = self._server
        total = s._depth_area
        elapsed = s._depth_span
        if end_time is not None and end_time > s._depth_at:
            total += s._depth * (end_time - s._depth_at)
            elapsed += end_time - s._depth_at
        return total / elapsed if elapsed > 0 else s._depth


class _BusyView:
    """Live read-only view of a server's busy time, with the read API of
    :class:`~repro.common.stats.UtilizationTracker` (window from t=0)."""

    __slots__ = ("_server",)

    def __init__(self, server):
        self._server = server

    def busy_time(self, now=None):
        s = self._server
        total = s._busy_total
        if s._busy and now is not None:
            total += now - s._busy_since
        return total

    @property
    def operations(self):
        return self._server._operations

    def utilization(self, now):
        """Fraction of [0, now] during which the server was busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / now)
