"""Simulated node topology: which ranks share a "node" (and thus shm).

Real MPI jobs span multiple nodes; ranks on the same node can exchange
messages through shared memory while cross-node pairs must use the
network.  MPICH-G2 formalised this as *multi-protocol* point-to-point
communication plus *multi-level* collective algorithms that exploit the
cluster hierarchy.  This module provides the same split for the
simulator:

:class:`Topology`
    Maps world ranks onto ``nodes`` simulated nodes (block distribution,
    configured via :attr:`repro.mpi.world.WorldConfig.nodes`).  The
    process backend's ``transport="shm"`` consults it to give same-node
    peer pairs rings and cross-node pairs sockets; with the single-node
    default (``nodes=None`` → 1 node) every pair is same-node.

:class:`CommHierarchy`
    The topology restricted to one communicator's members: per-node
    member lists and one *leader* rank per node.  The schedules of
    :mod:`repro.mpi.collectives` (shared by the object and buffer
    verbs) shape their star by it — node-mates talk to one
    representative (over shm), representatives to the root (over the
    peer transport) — so a collective crosses a node boundary once per
    node, the rule behind MPICH-G2's topology-aware trees.

Both classes are plain data + arithmetic: no locks, no I/O, safe to
share across threads and cheap to recompute per communicator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["Topology", "CommHierarchy"]


class Topology:
    """Block mapping of ``nprocs`` world ranks onto ``nnodes`` nodes.

    Rank *r* lives on node ``r * nnodes // nprocs`` — the standard block
    distribution: contiguous rank ranges per node, sizes differing by at
    most one.  With one node (the default) every pair is same-node.
    """

    __slots__ = ("nprocs", "nnodes", "_node_of")

    def __init__(self, nprocs: int, nnodes: int = 1):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {nnodes}")
        self.nprocs = nprocs
        #: Number of simulated nodes (clamped to ``nprocs``: a node with
        #: zero ranks would be meaningless).
        self.nnodes = min(nnodes, nprocs)
        self._node_of = tuple(
            r * self.nnodes // nprocs for r in range(nprocs)
        )

    @classmethod
    def from_config(cls, nprocs: int, config) -> "Topology":
        """Build the world topology from a :class:`WorldConfig`."""
        nodes = getattr(config, "nodes", None)
        return cls(nprocs, nodes if nodes else 1)

    def node_of(self, rank: int) -> int:
        """The simulated node hosting world *rank*."""
        return self._node_of[rank]

    def same_node(self, a: int, b: int) -> bool:
        """True when world ranks *a* and *b* share a simulated node."""
        return self._node_of[a] == self._node_of[b]

    def node_ranks(self, node: int) -> List[int]:
        """World ranks hosted on *node*, in rank order."""
        return [r for r in range(self.nprocs) if self._node_of[r] == node]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology nprocs={self.nprocs} nnodes={self.nnodes}>"


class CommHierarchy:
    """A :class:`Topology` restricted to one communicator's members.

    All ranks here are *communicator* ranks (``0..size-1``), not world
    ranks: the hierarchy is computed from the communicator's group so
    collectives address members with ordinary comm sends.

    ``leaders`` holds one member per participating node (the
    lowest-ranked member on that node), in node order.  ``local(rank)``
    is the member's index within its node's member list — the rank it
    plays in the intra-node phase.
    """

    __slots__ = (
        "size",
        "node_by_member",
        "members_by_node",
        "leaders",
        "_leader_pos",
    )

    def __init__(self, node_by_member: List[int]):
        self.size = len(node_by_member)
        #: node id per communicator rank.
        self.node_by_member = tuple(node_by_member)
        members: Dict[int, List[int]] = {}
        for rank, node in enumerate(node_by_member):
            members.setdefault(node, []).append(rank)
        #: node id -> sorted member ranks on that node.
        self.members_by_node = {n: tuple(m) for n, m in members.items()}
        #: one leader member per node, in ascending node order.
        self.leaders = tuple(
            members[n][0] for n in sorted(members)
        )
        self._leader_pos = {n: i for i, n in enumerate(sorted(members))}

    @classmethod
    def from_topology(
        cls, topo: Topology, world_ranks: List[int]
    ) -> "CommHierarchy":
        """Hierarchy of a communicator whose member *i* is
        ``world_ranks[i]``."""
        return cls([topo.node_of(w) for w in world_ranks])

    @property
    def nnodes(self) -> int:
        """Number of nodes with at least one member."""
        return len(self.members_by_node)

    def node(self, rank: int) -> int:
        """Node id of communicator *rank*."""
        return self.node_by_member[rank]

    def same_node(self, a: int, b: int) -> bool:
        """True when communicator ranks *a* and *b* share a node."""
        return self.node_by_member[a] == self.node_by_member[b]

    def members(self, rank: int) -> Tuple[int, ...]:
        """All members on *rank*'s node (including *rank*), rank order."""
        return self.members_by_node[self.node_by_member[rank]]

    def local(self, rank: int) -> int:
        """Index of *rank* within its node's member list."""
        return self.members(rank).index(rank)

    def leader(self, rank: int) -> int:
        """The leader member of *rank*'s node."""
        return self.members(rank)[0]

    def leader_index(self, rank: int) -> int:
        """Position of *rank*'s node in the (node-ordered) leader list."""
        return self._leader_pos[self.node_by_member[rank]]

    def effective_leaders(self, root: int) -> Tuple[List[int], int]:
        """Leader list for a rooted collective, with *root* promoted.

        A rooted collective wants *root* — not its node's default
        leader — to represent its node, so the data never takes an
        extra intra-node hop.  Returns ``(leaders, root_pos)`` where ``leaders`` is the
        node-ordered leader list with root's node's entry replaced by
        *root*, and ``root_pos`` is root's index in that list.
        """
        leaders = list(self.leaders)
        pos = self.leader_index(root)
        leaders[pos] = root
        return leaders, pos

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CommHierarchy size={self.size} nnodes={self.nnodes} "
            f"leaders={self.leaders}>"
        )
