"""Machine partition graphs — the topology API behind the sharded kernel.

A machine that wants to run on the sharded event kernel
(:mod:`repro.common.psim`) describes itself as a *partition graph*:

* :class:`TopologyUnit` — a simulation unit that owns private state (a
  processing element with its pipeline servers, a memory bank, a switch);
* :class:`TopologyLink` — a directed communication edge between two
  units, carrying the **minimum latency** (in cycles) of any message that
  ever crosses it.  That minimum is the Chandy–Misra *lookahead*: a shard
  that has simulated up to time ``t`` promises never to send a message
  timestamped earlier than ``t + lookahead``.

A link with ``lookahead <= 0`` declares a *synchronous* coupling — the
two units hand work to each other within a single instant (an inline
queue ``submit``, a shared bus arbitration) and therefore can never be
simulated on different shards without violating causality.
:meth:`MachineTopology.partition` contracts all such edges first, so a
machine whose units synchronize through zero-slack shared hardware
honestly collapses to one shard.  That is the paper's argument about von
Neumann multiprocessors, applied to our own simulator: only explicit
communication with real latency creates exploitable parallelism.

The graph is declarative (names, not object references); the machine
that builds live simulation objects maps unit indices to the objects it
registers with :meth:`repro.common.psim.ShardedSimulator.configure_shards`.
"""

from dataclasses import dataclass

from .errors import SimulationError

__all__ = ["TopologyUnit", "TopologyLink", "MachineTopology"]


@dataclass(frozen=True)
class TopologyUnit:
    """One schedulable unit of a machine's partition graph."""

    name: str
    kind: str = "unit"
    #: Relative simulation cost, used to balance shards.
    weight: float = 1.0


@dataclass(frozen=True)
class TopologyLink:
    """A directed edge; ``lookahead`` is the minimum message latency."""

    src: str
    dst: str
    lookahead: float


class MachineTopology:
    """Units + links; knows how to partition itself across N shards."""

    def __init__(self, units, links):
        self.units = list(units)
        self._index = {}
        for position, unit in enumerate(self.units):
            if unit.name in self._index:
                raise SimulationError(
                    f"duplicate topology unit {unit.name!r}"
                )
            self._index[unit.name] = position
        self.links = list(links)
        for link in self.links:
            for endpoint in (link.src, link.dst):
                if endpoint not in self._index:
                    raise SimulationError(
                        f"topology link {link.src!r}->{link.dst!r} names "
                        f"unknown unit {endpoint!r}"
                    )

    # ------------------------------------------------------------------
    def _groups(self):
        """Union-find contraction of every ``lookahead <= 0`` edge.

        Returns ``(root_of, groups)`` where ``groups`` maps each root to
        the sorted unit positions it absorbed.  Units joined by a
        zero-lookahead link must share a shard; everything else may
        split.
        """
        parent = list(range(len(self.units)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for link in self.links:
            if link.lookahead <= 0:
                a = find(self._index[link.src])
                b = find(self._index[link.dst])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        groups = {}
        for position in range(len(self.units)):
            groups.setdefault(find(position), []).append(position)
        return find, groups

    @property
    def max_shards(self):
        """Units that may legally run apart (post-contraction groups)."""
        if not self.units:
            return 1
        _, groups = self._groups()
        return len(groups)

    def partition(self, n_shards):
        """Assign every unit a shard in ``[0, n_shards)``.

        Zero-lookahead-coupled units stay together; the resulting groups
        are spread across shards balancing total unit weight (ties break
        toward the lowest shard, so the assignment is deterministic).
        Asking for more shards than the graph permits silently uses
        fewer — the caller reads the effective count off the result.
        """
        if n_shards < 1:
            raise SimulationError(f"partition needs n_shards >= 1, got {n_shards}")
        assignment = [0] * len(self.units)
        if n_shards == 1 or not self.units:
            return assignment
        _, groups = self._groups()
        # Heaviest groups first; first-unit position breaks ties so the
        # order (hence the assignment) is stable run to run.
        ordered = sorted(
            groups.values(),
            key=lambda members: (
                -sum(self.units[m].weight for m in members),
                members[0],
            ),
        )
        loads = [0.0] * n_shards
        for members in ordered:
            shard = min(range(n_shards), key=lambda s: (loads[s], s))
            loads[shard] += sum(self.units[m].weight for m in members)
            for member in members:
                assignment[member] = shard
        return assignment

    def shard_links(self, assignment):
        """Cross-shard channels implied by ``assignment``.

        Returns ``{(src_shard, dst_shard): lookahead}`` with the minimum
        lookahead over every unit-level link crossing that shard pair.
        """
        channels = {}
        for link in self.links:
            src = assignment[self._index[link.src]]
            dst = assignment[self._index[link.dst]]
            if src == dst:
                continue
            key = (src, dst)
            previous = channels.get(key)
            if previous is None or link.lookahead < previous:
                channels[key] = link.lookahead
        return channels

    # ------------------------------------------------------------------
    def as_dict(self):
        """JSON-friendly form (the ``registry.describe`` payload)."""
        return {
            "units": [
                {"name": u.name, "kind": u.kind, "weight": u.weight}
                for u in self.units
            ],
            "links": [
                {"src": l.src, "dst": l.dst, "lookahead": l.lookahead}
                for l in self.links
            ],
            "max_shards": self.max_shards,
        }

    def __repr__(self):
        return (
            f"<MachineTopology units={len(self.units)} "
            f"links={len(self.links)} max_shards={self.max_shards}>"
        )
