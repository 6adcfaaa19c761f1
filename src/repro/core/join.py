"""``MPH_comm_join``: a joint communicator over two components (paper §5.1).

"The output comm_new communicator will contain all processors in both
components, with processors in 'atmosphere' component ranked first (rank
0-15) and processors in 'ocean' component ranked second (rank 16-23). ...
If one reverses 'atmosphere' with 'ocean' in the call, then ocean
processors will rank 0-7 and atmosphere processors will rank 8-23."

Implementation note: a world-wide ``Comm_split`` would force *every*
process of the application to participate in every join.  Instead the join
is collective only over the union of the two components: the member with
the lowest world rank allocates the new context ids and distributes them
over MPH's private service communicator.  All members derive the member
list — first component's processors in local order, then the second's —
deterministically from the shared layout, so no further agreement is
needed.  (MPI-3's ``Comm_create_group`` works the same way; in 2004 MPH
had to burn a world split for this.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.session import derive_comm
from repro.errors import JoinError
from repro.mpi.comm import Comm

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mph import MPH

#: Service-communicator tag namespace reserved for join context
#: distribution.  The tag of one join is derived from the two component
#: ids, which every member agrees on by construction; repeated joins of the
#: same pair reuse the tag and stay correctly ordered by the per-source
#: non-overtaking guarantee.
JOIN_TAG_BASE = 1_000_000

#: Component-id radix for join tags (far above the 10-components-per-
#: executable paper limit times any realistic executable count).
_JOIN_ID_RADIX = 4096


def comm_join(mph: "MPH", name_first: str, name_second: str) -> Optional[Comm]:
    """Create the joint communicator of two components.

    Collective over the union of the two components' processes (all of
    which must call with the same arguments, in the same order relative to
    other joins).  Processes outside both components get ``None`` without
    communicating.

    Raises
    ------
    JoinError
        For unknown or identical component names, or components that
        overlap on processors (the rank ordering would be ambiguous).
    """
    layout = mph.layout
    if name_first == name_second:
        raise JoinError(f"cannot join component {name_first!r} with itself")
    a = layout.component(name_first)
    b = layout.component(name_second)
    shared = set(a.world_ranks).intersection(b.world_ranks)
    if shared:
        raise JoinError(
            f"components {name_first!r} and {name_second!r} overlap on world ranks "
            f"{sorted(shared)}; a joint communicator would need them at two ranks at once"
        )

    members = a.world_ranks + b.world_ranks  # first component ranks first (§5.1)
    me = mph.global_proc_id()
    if me not in members:
        return None

    # The member list is world ids; the service communicator's ranks only
    # coincide with them on the full world.  After a post-failure shrink
    # the translation goes through the service group (identity otherwise).
    tag = JOIN_TAG_BASE + a.comp_id * _JOIN_ID_RADIX + b.comp_id
    return derive_comm(
        mph.service_comm, members, me, tag, f"MPH:join({name_first},{name_second})"
    )
