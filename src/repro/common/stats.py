"""Measurement primitives used by every machine model.

The paper's figure of merit is "ALU utilization / idle time" (§1.2); the
classes here make that and related quantities (queue occupancy over time,
latency distributions, message counts) cheap to record during a simulation
and easy to summarize afterwards.
"""

import math

__all__ = [
    "Counter",
    "Histogram",
    "TimeWeighted",
    "UtilizationTracker",
    "SeriesRecorder",
    "summarize",
]


class Counter(dict):
    """A named bundle of monotonically increasing integer counters.

    A ``dict`` whose missing names read as 0 without being inserted, so
    hot paths bump a counter with ``counters[name] += 1``.
    """

    __slots__ = ()

    def __missing__(self, name):
        return 0

    def add(self, name, amount=1):
        self[name] += amount

    def get(self, name, default=0):
        return dict.get(self, name, default)

    def as_dict(self):
        return dict(self)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.items()))
        return f"Counter({inner})"


class Histogram:
    """An exact histogram over discrete (or binned) observations."""

    def __init__(self):
        self._bins = {}
        self._count = 0
        self._total = 0.0
        self._total_sq = 0.0
        self._min = None
        self._max = None

    def observe(self, value, weight=1):
        self._bins[value] = self._bins.get(value, 0) + weight
        self._count += weight
        self._total += value * weight
        self._total_sq += value * value * weight
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def count(self):
        return self._count

    @property
    def mean(self):
        return self._total / self._count if self._count else 0.0

    @property
    def variance(self):
        if not self._count:
            return 0.0
        mean = self.mean
        return max(0.0, self._total_sq / self._count - mean * mean)

    @property
    def stddev(self):
        return math.sqrt(self.variance)

    @property
    def min(self):
        return self._min

    @property
    def max(self):
        return self._max

    def percentile(self, q):
        """Exact q-th percentile (0 <= q <= 100) of the observed values."""
        if not self._count:
            return None
        target = q / 100.0 * self._count
        running = 0
        for value in sorted(self._bins):
            running += self._bins[value]
            if running >= target:
                return value
        return self._max

    def items(self):
        return sorted(self._bins.items())

    def __repr__(self):
        return (
            f"Histogram(n={self._count}, mean={self.mean:.3f}, "
            f"min={self._min}, max={self._max})"
        )


class TimeWeighted:
    """Tracks a piecewise-constant quantity over simulated time.

    Typical uses: waiting-matching store occupancy, deferred-read-list
    length, network queue depth.  ``update`` must be called with
    non-decreasing timestamps.
    """

    def __init__(self, initial=0.0, start_time=0.0):
        self._value = float(initial)
        self._last_time = float(start_time)
        self._weighted_total = 0.0
        self._elapsed = 0.0
        self._max = float(initial)

    def update(self, time, value):
        """Record that the quantity changed to ``value`` at ``time``."""
        dt = time - self._last_time
        if dt < 0:
            raise ValueError(f"time moved backwards: {self._last_time} -> {time}")
        self._weighted_total += self._value * dt
        self._elapsed += dt
        self._last_time = time
        self._value = float(value)
        if self._value > self._max:
            self._max = self._value

    def adjust(self, time, delta):
        """Convenience: change the quantity by ``delta`` at ``time``."""
        self.update(time, self._value + delta)

    @property
    def current(self):
        return self._value

    @property
    def max(self):
        return self._max

    def mean(self, end_time=None):
        """Time-weighted mean, optionally extending the last value to
        ``end_time``."""
        total = self._weighted_total
        elapsed = self._elapsed
        if end_time is not None and end_time > self._last_time:
            total += self._value * (end_time - self._last_time)
            elapsed += end_time - self._last_time
        return total / elapsed if elapsed > 0 else self._value


class UtilizationTracker:
    """Busy/idle accounting for a hardware unit (ALU, link, port).

    Units report half-open busy intervals; utilization is total busy time
    divided by the observation window.  Overlapping busy intervals (a unit
    with internal parallelism) are supported by tracking a busy *count*.
    """

    def __init__(self, start_time=0.0):
        self._busy_depth = 0
        self._busy_since = None
        self._busy_total = 0.0
        self._start = float(start_time)
        self._operations = 0

    def begin(self, time):
        if self._busy_depth == 0:
            self._busy_since = time
        self._busy_depth += 1
        self._operations += 1

    def end(self, time):
        if self._busy_depth <= 0:
            raise ValueError("UtilizationTracker.end() without matching begin()")
        self._busy_depth -= 1
        if self._busy_depth == 0:
            self._busy_total += time - self._busy_since
            self._busy_since = None

    def busy_time(self, now=None):
        total = self._busy_total
        if self._busy_depth > 0 and now is not None:
            total += now - self._busy_since
        return total

    @property
    def operations(self):
        return self._operations

    def utilization(self, now):
        """Fraction of [start, now] during which the unit was busy."""
        window = now - self._start
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time(now) / window)


class SeriesRecorder:
    """Records (time, value) samples for post-hoc plotting or assertions."""

    def __init__(self):
        self._times = []
        self._values = []

    def record(self, time, value):
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self):
        return list(self._times)

    @property
    def values(self):
        return list(self._values)

    def __len__(self):
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))


def summarize(values):
    """Return (mean, stddev, min, max) of an iterable of numbers."""
    data = list(values)
    if not data:
        return (0.0, 0.0, None, None)
    n = len(data)
    mean = sum(data) / n
    var = sum((x - mean) ** 2 for x in data) / n
    return (mean, math.sqrt(var), min(data), max(data))
