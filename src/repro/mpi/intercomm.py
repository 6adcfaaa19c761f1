"""Intercommunicators: two groups, point-to-point across them.

The paper's §5.2 weighs these explicitly: "The reason we did not use an
inter-communicator is because the entire application is assumed to run on
a tightly coupled HPC computer with a single MPI_Comm_World.  An
intercommunicator would be more appropriate for a heterogeneous
client-server environment."  MPH therefore addresses peers through the
global world — but a complete MPI substrate offers the alternative, and
having both lets the test suite state the comparison concretely (see
``tests/mpi/test_intercomm.py``).

Semantics follow MPI: an :class:`InterComm` has a *local* group (where
``rank``/``size`` live) and a *remote* group; every point-to-point call
addresses ranks of the remote group.  ``merge`` flattens the pair into an
ordinary intracommunicator.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import CommError
from repro.mpi.comm import Comm, _decode_object
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, is_valid_recv_tag, is_valid_tag
from repro.mpi.group import Group
from repro.mpi.mailbox import Envelope
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.serialization import Blob
from repro.mpi.status import Status


class InterComm:
    """A communicator between two disjoint groups (``MPI_Comm``-with-
    remote-group).  Construct with :func:`create_intercomm`."""

    def __init__(
        self,
        local_comm: Comm,
        remote_group: Group,
        ctx_pair: tuple[int, int],
        name: str = "intercomm",
    ):
        overlap = set(local_comm.group.members) & set(remote_group.members)
        if overlap:
            raise CommError(
                f"intercommunicator groups must be disjoint; both contain {sorted(overlap)}"
            )
        self._local = local_comm
        self._remote = remote_group
        self._p2p_ctx, self._coll_ctx = ctx_pair
        self.name = name

    # -- introspection -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank in the *local* group."""
        return self._local.rank

    @property
    def size(self) -> int:
        """Size of the local group."""
        return self._local.size

    @property
    def remote_size(self) -> int:
        """Size of the remote group (``MPI_Comm_remote_size``)."""
        return self._remote.size

    @property
    def local_comm(self) -> Comm:
        """The underlying local intracommunicator."""
        return self._local

    @property
    def remote_group(self) -> Group:
        """The remote group (``MPI_Comm_remote_group``)."""
        return self._remote

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<InterComm {self.name!r} local {self.rank}/{self.size} remote {self.remote_size}>"

    # -- point-to-point across the bridge ----------------------------------------

    @property
    def _mailbox(self):
        return self._local.world.mailboxes[self._local._my_world_id]

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send *obj* to rank *dest* of the **remote** group."""
        self._check_remote(dest)
        if not is_valid_tag(tag):
            raise CommError(f"invalid send tag {tag}")
        blob = Blob.encode(obj)
        env = Envelope(self._p2p_ctx, self.rank, tag, blob, "object", blob.nbytes)
        self._local.world.deliver(self._remote.world_id(dest), env)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking :meth:`send` (eager: already complete)."""
        self.send(obj, dest, tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive from a **remote** rank."""
        if source != ANY_SOURCE:
            self._check_remote(source)
        if not is_valid_recv_tag(tag):
            raise CommError(f"invalid receive tag {tag}")
        posted = self._mailbox.post_recv(self._p2p_ctx, source, tag)
        what = f"intercomm recv(source={source}, tag={tag}) on {self.name}"
        return RecvRequest(self._mailbox, posted, _decode_object, what)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Optional[Status] = None
    ) -> Any:
        """Blocking receive from a **remote** rank."""
        return self.irecv(source, tag).wait(status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait for a pending remote message and return its
        status without receiving it (parks on the progress engine)."""
        what = f"intercomm probe(source={source}, tag={tag}) on {self.name}"
        env = self._mailbox.probe(self._p2p_ctx, source, tag, block=True, what=what)
        assert env is not None
        return Status(source=env.source, tag=env.tag, count=env.count)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe for a pending remote message."""
        env = self._mailbox.probe(self._p2p_ctx, source, tag, block=False, what="iprobe")
        if env is None:
            return None
        return Status(source=env.source, tag=env.tag, count=env.count)

    def _check_remote(self, rank: int) -> None:
        if not 0 <= rank < self._remote.size:
            raise CommError(
                f"remote rank {rank} out of range for {self.name!r} "
                f"(remote size {self._remote.size})"
            )

    # -- merge --------------------------------------------------------------------

    def merge(self, high: bool = False) -> Comm:
        """``MPI_Intercomm_merge``: one intracommunicator over both groups.

        Collective over both sides; all processes of one group pass the
        same *high* flag and the two groups pass opposite flags.  The
        ``high=False`` group takes the lower ranks.
        """
        flags = self._local.allgather(high)
        if len(set(flags)) != 1:
            raise CommError("all processes of one group must pass the same `high` flag")
        # Exchange flags between leaders so ordering is agreed.
        if self.rank == 0:
            self.send(("merge-flag", high), 0, tag=0)
            _, remote_high = self.recv(0, tag=0)
            if remote_high == high:
                raise CommError("the two groups must pass opposite `high` flags")
            ctxs = None
            if not high:
                ctxs = self._local.world.alloc_context_pair()
                self.send(("merge-ctxs", ctxs), 0, tag=0)
            else:
                _, ctxs = self.recv(0, tag=0)
        else:
            ctxs = None
        ctxs = self._local.bcast(ctxs, root=0)
        low_first = not high
        mine = self._local.group.members
        theirs = self._remote.members
        ordered = (mine + theirs) if low_first else (theirs + mine)
        return Comm(
            self._local.world,
            Group(ordered),
            self._local._my_world_id,
            ctxs,
            name=f"{self.name}.merged",
        )


def create_intercomm(
    local_comm: Comm,
    local_leader: int,
    bridge_comm: Comm,
    remote_leader: int,
    tag: int = 0,
) -> InterComm:
    """``MPI_Intercomm_create``: bridge two intracommunicators.

    Collective over both local communicators.  *bridge_comm* must contain
    both leaders (typically the world); *remote_leader* is the peer
    leader's rank in *bridge_comm*.
    """
    leader = local_comm.rank == local_leader
    payload = None
    if leader:
        # Leaders swap their groups; the one with the lower bridge rank
        # allocates the context pair for both sides.
        bridge_comm.send(
            ("intercomm-group", tuple(local_comm.group.members)), remote_leader, tag
        )
        _, remote_members = bridge_comm.recv(remote_leader, tag)
        if bridge_comm.rank < remote_leader:
            ctxs = bridge_comm.world.alloc_context_pair()
            bridge_comm.send(("intercomm-ctxs", ctxs), remote_leader, tag)
        else:
            _, ctxs = bridge_comm.recv(remote_leader, tag)
        payload = (remote_members, ctxs)
    remote_members, ctxs = local_comm.bcast(payload, root=local_leader)
    return InterComm(
        local_comm,
        Group(remote_members),
        ctxs,
        name=f"intercomm({local_comm.name})",
    )
