"""Dynamic component processor reallocation (paper §9, future work (b)).

"Some further work of component integration mechanisms of MPH are: ...
(b) dynamic component model processor allocation or migration."

The mechanism implemented here: at an application-wide synchronisation
point, every process re-runs the handshake (:meth:`Session.init
<repro.core.session.Session.init>` with its own declaration) against a
*new* registration file that reassigns processors among the components
of each executable (executable sizes are fixed by the launcher and
cannot change mid-job).
The component set must be preserved; communicators are rebuilt, and
:func:`redistribute_block` moves 1-D block-decomposed component data from
the old layout to the new one over the executable communicator.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.mph import MPH
from repro.core.session import Session
from repro.errors import HandshakeError


def migrate(mph: MPH, new_registry: Any) -> MPH:
    """Re-handshake the whole application against *new_registry*.

    Collective over the global world: every process must call it at the
    same point.  Returns a fresh :class:`MPH` handle that keeps the old
    handle's :attr:`~MPH.profile`; the old handle's communicators remain
    usable for draining in-flight data but should be retired afterwards.

    Raises
    ------
    HandshakeError
        When the new registration changes the component set or regroups
        components across executables (only processor ranges may move).
    """
    session = Session.init(mph.global_world, mph._session._decl, new_registry)
    new_mph = session.mph(mph._env)
    new_mph.profile = mph.profile

    old_names = set(mph.layout.registry.component_names)
    new_names = set(new_mph.layout.registry.component_names)
    if old_names != new_names:
        raise HandshakeError(
            f"migration must preserve the component set; "
            f"removed: {sorted(old_names - new_names)}, added: {sorted(new_names - old_names)}"
        )
    return new_mph


def block_rows(n_rows: int, size: int, rank: int) -> tuple[int, int]:
    """The ``[start, stop)`` row range of *rank* in an even 1-D block
    decomposition of *n_rows* over *size* processes (remainder rows go to
    the leading ranks, the standard convention)."""
    base, rem = divmod(n_rows, size)
    start = rank * base + min(rank, rem)
    stop = start + base + (1 if rank < rem else 0)
    return start, stop


def redistribute_block(
    old_mph: MPH,
    new_mph: MPH,
    component: str,
    local_block: Optional[np.ndarray],
    n_rows: int,
) -> Optional[np.ndarray]:
    """Move a 1-D block-decomposed field from the old layout to the new.

    Collective over the *executable* hosting the component.  Each process
    that owned rows under the old layout passes its block (``None``
    otherwise); each process owning rows under the new layout receives its
    new block (``None`` otherwise).

    The implementation gathers the field on the executable's root and
    re-scatters it — simple and obviously correct, which is what a
    migration epoch (a rare event) wants.
    """
    exe = new_mph.exe_world
    old_info = old_mph.layout.component(component)
    new_info = new_mph.layout.component(component)
    me = new_mph.global_proc_id()

    # Gather (old-local-rank, block) contributions on the executable root.
    contribution = None
    if me in old_info.world_ranks and local_block is not None:
        contribution = (old_info.local_rank_of(me), np.asarray(local_block))
    gathered = exe.gather(contribution, root=0)

    blocks_for: Optional[list] = None
    if exe.rank == 0:
        assert gathered is not None
        pieces = sorted((c for c in gathered if c is not None), key=lambda t: t[0])
        if not pieces:
            raise HandshakeError(f"no process contributed data for component {component!r}")
        full = np.concatenate([b for _, b in pieces], axis=0)
        if full.shape[0] != n_rows:
            raise HandshakeError(
                f"component {component!r}: contributed blocks cover {full.shape[0]} rows, "
                f"expected {n_rows}"
            )
        # Slice per the new layout and address each slice to the right
        # executable-local process.
        blocks_for = [None] * exe.size
        exe_ranks = new_mph.layout.executables[new_mph.exe_id()].world_ranks
        for new_local, world_rank in enumerate(new_info.world_ranks):
            start, stop = block_rows(n_rows, new_info.size, new_local)
            blocks_for[exe_ranks.index(world_rank)] = full[start:stop]
    return exe.scatter(blocks_for, root=0)
