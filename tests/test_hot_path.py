"""Pins for the per-token hot path of the machine models.

``FifoServer`` keeps its queue-depth integral and busy time in its own
fields; the reference below is the same server built on
:class:`TimeWeighted` and :class:`UtilizationTracker`, and every
statistic except ``queue_depth.max`` must match it exactly: the same
floats of the same types, not approximately.  The tag-key goldens were
computed with the original ``_mix``-per-step implementation.
"""

from collections import deque

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.common.errors import CompileError, NetworkError
from repro.common.queueing import FifoServer
from repro.common.simulator import Simulator
from repro.common.stats import Counter, TimeWeighted, UtilizationTracker
from repro.dataflow.mapping import ByContextMapping, HashMapping, stable_tag_key
from repro.dataflow.tags import Tag
from repro.istructure.controller import IStructureController, WriteRequest
from repro.network.ideal import IdealNetwork
from repro.network.packet import Packet
from repro.vonneumann.assembler import assemble


class ReferenceServer:
    """A FIFO server whose statistics live in the tracker classes."""

    def __init__(self, sim, service_time):
        self.sim = sim
        self.service_time = service_time
        self._queue = deque()
        self._busy = False
        self.queue_depth = TimeWeighted()
        self.utilization = UtilizationTracker()
        self.items_served = 0

    def submit(self, item, on_done, service_time=None):
        queue = self._queue
        queue.append((item, on_done, service_time))
        self.queue_depth.update(self.sim.now, len(queue))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        queue = self._queue
        if not queue:
            return
        item, on_done, service_time = queue.popleft()
        now = self.sim.now
        self.queue_depth.update(now, len(queue))
        self._busy = True
        self.utilization.begin(now)
        duration = self.service_time if service_time is None else service_time
        self.sim.post(duration, self._complete, item, on_done)

    def _complete(self, item, on_done):
        self.utilization.end(self.sim.now)
        self._busy = False
        self.items_served += 1
        on_done(item)
        if not self._busy:
            self._start_next()


_times = st.floats(min_value=0.0, max_value=6.0, allow_nan=False,
                   allow_infinity=False)
_services = st.floats(min_value=0.01, max_value=4.0, allow_nan=False,
                      allow_infinity=False)
_arrivals = st.lists(
    st.tuples(_times, st.one_of(st.none(), _services), st.booleans()),
    max_size=25,
)


def _drive(server_cls, default_service, arrivals, cut):
    """Run one arrival schedule; return (completions, stats at ``cut``,
    stats at the end)."""
    sim = Simulator()
    server = server_cls(sim, default_service)
    done = []

    def on_done(item):
        done.append((sim.now, item))
        index, again, first = item
        if again and first:  # synchronous resubmit from the callback
            server.submit((index, again, False), on_done,
                          service_time=arrivals[index][1])

    for index, (at, service, again) in enumerate(arrivals):
        sim.post_at(at, server.submit, (index, again, True), on_done,
                    service)

    def stats(now):
        depth, busy = server.queue_depth, server.utilization
        return (depth.mean(), depth.mean(end_time=now),
                depth.mean(end_time=now + 1.5), depth.current,
                busy.busy_time(), busy.busy_time(now),
                busy.utilization(now), busy.utilization(now + 2.25),
                busy.operations, server.items_served)

    sim.run(until=cut)
    mid = stats(sim.now)
    sim.run()
    return done, mid, stats(sim.now)


class TestFifoServerBookkeeping:
    @seed(20261017)
    @settings(max_examples=200, deadline=None, database=None)
    @given(default_service=_services, arrivals=_arrivals, cut=_times)
    def test_matches_tracker_reference(self, default_service, arrivals, cut):
        fast = _drive(FifoServer, default_service, arrivals, cut)
        ref = _drive(ReferenceServer, default_service, arrivals, cut)
        assert repr(fast) == repr(ref)  # exact floats, and their types

    def test_queue_max_ignores_items_that_never_waited(self):
        sim = Simulator()
        server = FifoServer(sim, 2.0)
        server.submit("a", lambda _: None)
        sim.post_at(5, server.submit, "b", lambda _: None)
        sim.run()
        assert server.items_served == 2
        assert server.queue_depth.max == 0.0
        assert server.queue_depth.mean() == 0.0

    def test_resubmit_behind_waiting_items_counts_once(self):
        sim = Simulator()
        server = FifoServer(sim, 1)
        order = []

        def first(item):
            order.append(item)
            server.submit("c", order.append)

        server.submit("a", first)
        server.submit("b", order.append)
        sim.run()
        assert order == ["a", "b", "c"]
        assert server.queue_depth.max == 1.0

    def test_end_without_begin_still_raises(self):
        server = FifoServer(Simulator(), 1)
        with pytest.raises(ValueError, match="without matching begin"):
            server._complete("a", lambda item: None)

    def test_controller_queue_max_ignores_requests_that_never_waited(self):
        sim = Simulator()
        controller = IStructureController(sim, deliver=lambda r, v: None)
        controller.submit(WriteRequest(key=("a", 0), value=1))
        sim.post_at(10, controller.submit, WriteRequest(key=("a", 1), value=2))
        sim.run()
        assert controller.counters["writes"] == 2
        assert controller.queue_depth.max == 0.0


#: (code block, statement, iteration) per context level, outermost first.
_LEVELS = [("main", 0, 1), ("loop", 3, 2), ("body_ü", 17, 5),
           ("f", 2, 1), ("loop", 9, 123456)]

#: depth -> (stable_tag_key, HashMapping(7), ByContextMapping(7),
#: ByContextMapping(5, spread_iterations=False)).
_GOLDEN = {
    0: (807321026, 1, 5, 1),
    1: (3078877075, 1, 6, 3),
    2: (3788175466, 5, 1, 2),
    3: (2826331585, 0, 1, 2),
    4: (2479930314, 1, 6, 1),
}


@pytest.mark.parametrize("depth", sorted(_GOLDEN))
def test_tag_key_goldens(depth):
    tag = None
    for code_block, statement, iteration in _LEVELS[:depth + 1]:
        tag = Tag(tag, code_block, statement, iteration)
    assert (
        stable_tag_key(tag),
        HashMapping(7).pe_of(tag),
        ByContextMapping(7).pe_of(tag),
        ByContextMapping(5, spread_iterations=False).pe_of(tag),
    ) == _GOLDEN[depth]
    assert stable_tag_key(tag) == _GOLDEN[depth][0]  # memoized value


class TestCounter:
    def test_missing_name_reads_zero_without_inserting(self):
        counters = Counter()
        assert counters["never"] == 0
        assert "never" not in counters
        assert counters.as_dict() == {}

    def test_get_defaults_to_zero(self):
        counters = Counter()
        assert counters.get("x") == 0
        assert counters.get("x", 7) == 7

    def test_bumps_and_as_dict(self):
        counters = Counter()
        counters["a"] += 1
        counters.add("a", 2)
        counters.add("b")
        snapshot = counters.as_dict()
        assert type(snapshot) is dict
        assert snapshot == {"a": 3, "b": 1}
        snapshot["a"] = 0
        assert counters["a"] == 3
        assert repr(counters) == "Counter(a=3, b=1)"


class TestPacket:
    def test_pids_follow_creation_order_and_repr(self):
        a = Packet(src=0, dst=1, payload="p")
        b = Packet(2, 3, "q", size=4)
        assert b.pid == a.pid + 1
        assert (b.size, b.injected_at, b.hops, b.cause, b.fault_checked) == (
            4, None, 0, None, False)
        assert repr(a) == f"<Packet #{a.pid} 0->1 hops=0 'p'>"

    @pytest.mark.parametrize("src,dst,bad", [(2, 0, 2), (0, -1, -1),
                                             (5, 9, 5)])
    def test_bad_port_raises(self, src, dst, bad):
        net = IdealNetwork(Simulator(), 2)
        with pytest.raises(NetworkError,
                           match=rf"port {bad} out of range \[0, 2\)"):
            net.send(src, dst, "x")
        assert net.counters["injected"] == 0


def test_assemble_memo_returns_fresh_lists_and_never_caches_errors():
    source = "movi r1, 3\nloop: subi r1, r1, 1\nbnez r1, loop\nhalt\n"
    first, second = assemble(source), assemble(source)
    assert first == second and first is not second
    first.append(None)
    assert len(assemble(source)) == 4
    for _ in range(2):
        with pytest.raises(CompileError):
            assemble("bogus r1\n")
