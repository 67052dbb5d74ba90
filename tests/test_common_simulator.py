"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common import SimulationError, Simulator
from repro.common.simulator import CalendarSimulator, LegacySimulator

BOTH_KERNELS = pytest.mark.parametrize(
    "sim_class", [CalendarSimulator, LegacySimulator],
    ids=["calendar", "legacy"],
)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "b")
    sim.schedule(1, fired.append, "a")
    sim.schedule(9, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(3, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_schedule_from_within_event():
    sim = Simulator()
    trace = []

    def first():
        trace.append(("first", sim.now))
        sim.schedule(2, second)

    def second():
        trace.append(("second", sim.now))

    sim.schedule(1, first)
    sim.run()
    assert trace == [("first", 1.0), ("second", 3.0)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1, fired.append, "x")
    sim.schedule(2, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(10, fired.append, "b")
    stopped = sim.run(until=5)
    assert fired == ["a"]
    assert stopped == 5
    sim.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1, lambda: None)


def test_event_budget_detects_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_quiescence_hook_refills_queue_once():
    sim = Simulator()
    fired = []
    refills = []

    def hook():
        if not refills:
            refills.append(True)
            sim.schedule(4, fired.append, "late")

    sim.add_quiescence_hook(hook)
    sim.schedule(1, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 5


def test_pending_and_counters():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending == 2
    assert sim.events_fired == 0
    sim.run()
    assert sim.pending == 0
    assert sim.events_fired == 2


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


# ----------------------------------------------------------------------
# Kernel edge cases, run against both the calendar and legacy kernels so
# the two stay behaviourally interchangeable.
# ----------------------------------------------------------------------

@BOTH_KERNELS
def test_post_fires_and_counts(sim_class):
    sim = sim_class()
    fired = []
    sim.post(2, fired.append, "a")
    sim.post(1, fired.append, "b")
    assert sim.pending == 2
    sim.run()
    assert fired == ["b", "a"]
    assert sim.pending == 0
    assert sim.events_fired == 2


@BOTH_KERNELS
def test_event_exactly_at_until_boundary_fires(sim_class):
    # `until` is inclusive: an event AT the bound fires and the clock
    # lands on the bound, not past it.
    sim = sim_class()
    fired = []
    sim.schedule(5, fired.append, "edge")
    sim.schedule(5.5, fired.append, "past")
    stopped = sim.run(until=5)
    assert fired == ["edge"]
    assert stopped == 5.0
    assert sim.now == 5.0


@BOTH_KERNELS
def test_cancel_during_same_instant_dispatch(sim_class):
    # An event cancels a later event at the SAME instant while the
    # instant is being dispatched: the victim must not fire.
    sim = sim_class()
    fired = []
    victim = []

    def killer():
        fired.append("killer")
        victim[0].cancel()

    sim.schedule(1, killer)
    victim.append(sim.schedule(1, fired.append, "victim"))
    sim.schedule(1, fired.append, "after")
    sim.run()
    assert fired == ["killer", "after"]
    assert sim.pending == 0


@BOTH_KERNELS
def test_cancel_during_step(sim_class):
    sim = sim_class()
    fired = []
    later = sim.schedule(2, fired.append, "later")
    sim.schedule(1, later.cancel)
    assert sim.step() is True  # runs the cancel
    assert sim.step() is False  # nothing live remains
    assert fired == []


@BOTH_KERNELS
def test_quiescence_hook_can_schedule_at_current_instant(sim_class):
    sim = sim_class()
    fired = []
    refilled = []

    def hook():
        if not refilled:
            refilled.append(True)
            sim.post(0, fired.append, "now")

    sim.add_quiescence_hook(hook)
    sim.post(3, fired.append, "first")
    sim.run()
    assert fired == ["first", "now"]
    assert sim.now == 3.0


@BOTH_KERNELS
def test_int_and_float_times_share_an_instant(sim_class):
    # post(1) and post(1.0) are the same instant; FIFO holds across the
    # int/float spelling and across post()/schedule() entries.
    sim = sim_class()
    fired = []
    sim.post(1, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    sim.post(1.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 1.0


@BOTH_KERNELS
def test_fifo_across_integer_and_fractional_instants(sim_class):
    sim = sim_class()
    fired = []
    sim.post(1, fired.append, "t1-first")
    sim.post(0.5, fired.append, "t0.5")
    sim.schedule(1, fired.append, "t1-second")
    sim.post(1.5, fired.append, "t1.5")
    sim.post(1, fired.append, "t1-third")
    sim.run()
    assert fired == ["t0.5", "t1-first", "t1-second", "t1-third", "t1.5"]


@BOTH_KERNELS
def test_same_instant_posts_from_within_dispatch_fire_same_instant(sim_class):
    # A callback posting at delay 0 extends the current instant's batch.
    sim = sim_class()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.post(0, second)

    def second():
        fired.append(("second", sim.now))

    sim.post(2, first)
    sim.run()
    assert fired == [("first", 2.0), ("second", 2.0)]


@BOTH_KERNELS
def test_cancelled_only_instant_does_not_advance_clock(sim_class):
    sim = sim_class()
    fired = []
    decoy = sim.schedule(7, fired.append, "decoy")
    sim.schedule(1, fired.append, "real")
    decoy.cancel()
    sim.run()
    assert fired == ["real"]
    assert sim.now == 1.0  # never advanced to the cancelled instant


@BOTH_KERNELS
def test_budget_exhaustion_keeps_unfired_events(sim_class):
    # Hitting the budget mid-instant must not lose the unfired tail.
    sim = sim_class()
    fired = []
    for name in "abcd":
        sim.post(1, fired.append, name)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=2)
    assert fired == ["a", "b"]
    sim.run()
    assert fired == ["a", "b", "c", "d"]
    assert sim.events_fired == 4  # each entry fired exactly once


@BOTH_KERNELS
def test_double_cancel_is_idempotent(sim_class):
    sim = sim_class()
    event = sim.schedule(1, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending == 0
    sim.run()
    assert sim.events_fired == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1, fired.append, "x")
    sim.run()
    event.cancel()  # already consumed; must not corrupt counters
    assert fired == ["x"]
    assert sim.pending == 0
    assert sim.events_fired == 1


def test_mass_cancellation_keeps_queue_bounded():
    # Regression: 10k schedule-then-cancel cycles used to leave 10k dead
    # Event records in the heap.  The calendar kernel compacts lazily;
    # the debris must stay bounded and the final state clean.
    sim = CalendarSimulator()
    fired = []
    for i in range(10_000):
        event = sim.schedule(1_000_000 + i, fired.append, i)
        event.cancel()
        # Debris never exceeds the compaction threshold by more than one
        # pending sweep's worth.
        assert sim._ncancelled <= 1024
    sim.schedule(1, fired.append, "live")
    assert sim.pending == 1
    sim.run()
    assert fired == ["live"]
    assert sim._ncancelled == 0
    assert not sim._buckets
    assert not sim._keys


def test_calendar_and_legacy_fire_identical_order():
    # Determinism contract: both kernels produce the same total order
    # on a workload mixing posts, schedules, cancels, and re-posts.
    def workload(sim):
        order = []

        def spawn(name, depth):
            order.append((name, sim.now))
            if depth > 0:
                sim.post(1, spawn, f"{name}.a", depth - 1)
                sim.post(0.5, spawn, f"{name}.b", depth - 1)
                doomed = sim.schedule(2, order.append, ("doomed", name))
                sim.post(0, doomed.cancel)

        for i in range(3):
            sim.post(i, spawn, f"root{i}", 3)
        sim.run()
        return order, sim.now, sim.events_fired

    calendar = workload(CalendarSimulator())
    legacy = workload(LegacySimulator())
    assert calendar == legacy


# ---------------------------------------------------------------------------
# Kernel selection: resolved at construction time, not import time
# ---------------------------------------------------------------------------

def test_env_kernel_honored_after_import(monkeypatch):
    # Historically the choice was frozen at `import repro` — setting
    # REPRO_SIM_KERNEL afterwards was silently ignored.  The factory
    # resolves per construction.
    monkeypatch.setenv("REPRO_SIM_KERNEL", "legacy")
    assert isinstance(Simulator(), LegacySimulator)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "calendar")
    assert isinstance(Simulator(), CalendarSimulator)
    monkeypatch.delenv("REPRO_SIM_KERNEL")
    assert isinstance(Simulator(), CalendarSimulator)  # the default


def test_kernel_kwarg_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "legacy")
    assert isinstance(Simulator(kernel="calendar"), CalendarSimulator)
    assert isinstance(Simulator(kernel="legacy"), LegacySimulator)


def test_unknown_kernel_rejected(monkeypatch):
    with pytest.raises(SimulationError, match="quantum"):
        Simulator(kernel="quantum")
    monkeypatch.setenv("REPRO_SIM_KERNEL", "bogus")
    with pytest.raises(SimulationError, match="bogus"):
        Simulator()
