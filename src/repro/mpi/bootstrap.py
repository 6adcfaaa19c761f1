"""Rank rendezvous of the process backend: an MPD-style relay tree.

A parent that accepts every child itself — the pattern the MPD papers
(Butler, Gropp & Lusk) warn about — serially handles O(N) connections
and pickles an O(N)-entry welcome payload O(N) times, so launcher CPU
grows O(N²) with world size.  Every process world instead forms through
a :data:`FANOUT`-ary relay *tree* over deterministic control sockets.

* Child *r*'s tree parent is ``(r - 1) // FANOUT``; its children are
  ``FANOUT * r + 1 .. FANOUT * r + FANOUT``.  Rank 0 is the root and the
  only child that talks to the launcher during address exchange.
* **Upward**: each child binds its data listener *first* (so no sender
  can race it), collects one aggregated ``("hellos", {rank: addr})``
  frame per subtree from its tree children, merges in its own address,
  and sends the result up.  The launcher receives exactly one frame with
  all N addresses.
* **Downward**: the launcher pickles the shared welcome payload (peer
  map + :class:`~repro.mpi.world.WorldConfig`) **once** into an opaque
  blob and hands it to rank 0 with the per-rank launcher metadata.  Each
  relay forwards the blob bytes verbatim to its children — a memcpy, not
  a re-pickle — splitting only the metadata by subtree.
* **Register**: after decoding its welcome, every child opens a direct
  connection to the launcher and sends ``("register", rank)``.  That
  connection carries the result frame, the shutdown linger, and the
  silent-death detection, so the tree carries only the address
  exchange, not the failure handling.

The *control* plane — the launcher's rendezvous socket and every
``ctrl<rank>.sock`` — lives at deterministic paths in the job's private
socket directory: a child knows its parent's control path before any
address has been exchanged.  The addresses the exchange *carries* are
the ranks' *data* listeners, so socket and shm jobs of any size, down to
one rank, form the same way.

A child may connect to its tree parent before the parent has bound its
control socket; :func:`connect_retry` absorbs that race with a capped
backoff.  A child that dies during the exchange stalls its subtree; the
launcher's liveness poll detects the dead process and terminates the
job.

``BENCH_init.json`` records the scaling against the retired
parent-accepts-everyone scheme (simulated ranks at 64–4096; the tree
wins from 256 ranks); the ``init-scale`` CI job pins a 512-rank
exchange.
"""

from __future__ import annotations

import errno
import os
import pickle
import socket
import time
from typing import Any, Optional

from repro.errors import TransportError
from repro.mpi.transport import connect, make_listener, recv_frame, send_frame

#: Arity of the relay tree.
FANOUT = 8

#: How long a child keeps retrying a connect to a tree parent whose
#: control socket is not bound yet.
_CONNECT_RETRY_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# Tree shape
# ---------------------------------------------------------------------------


def tree_parent(rank: int) -> int:
    """Tree parent of *rank* (undefined for the root, rank 0)."""
    return (rank - 1) // FANOUT


def tree_children(rank: int, nprocs: int) -> list[int]:
    """Tree children of *rank* in the tree of *nprocs* ranks."""
    first = FANOUT * rank + 1
    return [r for r in range(first, min(first + FANOUT, nprocs))]


def subtree_ranks(rank: int, nprocs: int) -> list[int]:
    """All ranks of the subtree rooted at *rank* (including *rank*)."""
    out: list[int] = []
    frontier = [rank]
    while frontier:
        r = frontier.pop()
        out.append(r)
        frontier.extend(tree_children(r, nprocs))
    return out


def ctrl_path(sockdir: str, rank: int) -> str:
    """Deterministic control-socket path of *rank* — what makes the tree
    possible without any prior address exchange."""
    return os.path.join(sockdir, f"ctrl{rank}.sock")


# ---------------------------------------------------------------------------
# Sockets
# ---------------------------------------------------------------------------


def connect_retry(path: str, timeout: float = _CONNECT_RETRY_TIMEOUT) -> socket.socket:
    """Connect, absorbing the child-before-parent race: a tree child may
    dial its parent's deterministic control path before the parent has
    bound it."""
    deadline = time.monotonic() + timeout
    delay = 0.001
    while True:
        try:
            return connect(path)
        except OSError as exc:
            if exc.errno not in (
                errno.ENOENT,
                errno.ECONNREFUSED,
                errno.ECONNRESET,
            ):
                raise
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"bootstrap connect to {path!r} kept failing for "
                    f"{timeout:.0f}s: {exc}"
                ) from exc
            time.sleep(delay)
            delay = min(delay * 2, 0.05)


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


def child_tree_exchange(
    rendezvous: str,
    rank: int,
    nprocs: int,
    sockdir: str,
    my_addr: str,
) -> tuple[dict[int, str], Any, Any, socket.socket]:
    """One child's half of the tree bootstrap.

    Returns ``(peers, config, meta, ctrl)`` where *ctrl* is the direct,
    already-registered launcher connection that carries the rest of the
    child's protocol (result frame, shutdown linger).
    """
    peers, config, meta = child_tree_address_exchange(rendezvous, rank, nprocs, sockdir, my_addr)

    # Register: the direct launcher connection used for everything after
    # the address exchange.
    ctrl = connect(rendezvous)
    send_frame(ctrl, ("register", rank))
    return peers, config, meta, ctrl


def child_tree_address_exchange(
    rendezvous: str,
    rank: int,
    nprocs: int,
    sockdir: str,
    my_addr: str,
    timeout: float = _CONNECT_RETRY_TIMEOUT,
) -> tuple[dict[int, str], Any, Any]:
    """The relay part of the child's tree bootstrap — hellos up, welcome
    down — without the follow-up launcher registration.  Returns
    ``(peers, config, meta)``.  Split out so ``bench_init`` can drive
    the part whose cost grows with world size (registration is one O(1)
    connect per child).  *timeout* caps each blocking step; the default
    suits real per-process children — oversubscribed thread-simulated
    worlds (hundreds of ranks on few cores) need more headroom.
    """
    children = tree_children(rank, nprocs)

    # Bind my control socket before contacting the parent, so my own
    # children's connect_retry can only ever race the bind, not miss it.
    ctrl_listener = None
    if children:
        ctrl_listener = make_listener(ctrl_path(sockdir, rank))
        ctrl_listener.settimeout(timeout)

    # Upward: aggregate my subtree's addresses.  Children connect in
    # whatever order they finish their own subtrees, so the hellos frame
    # carries the sender's rank and connections are keyed by it — the
    # downward welcomes must reach the matching subtree.
    addrs: dict[int, str] = {rank: my_addr}
    child_conns: dict[int, socket.socket] = {}
    try:
        for _ in children:
            conn, _ = ctrl_listener.accept()
            hellos = recv_frame(conn, timeout=timeout)
            if not hellos or hellos[0] != "hellos" or hellos[1] not in children:
                raise TransportError(f"expected aggregated hellos, got {hellos!r}")
            child_conns[hellos[1]] = conn
            addrs.update(hellos[2])

        if rank == 0:
            up = connect(rendezvous)
        else:
            up = connect_retry(ctrl_path(sockdir, tree_parent(rank)), timeout=timeout)
        try:
            send_frame(up, ("hellos", rank, addrs))

            # Downward: shared blob relayed verbatim, metadata split by
            # subtree.
            welcome = recv_frame(up, timeout=timeout)
            if not welcome or welcome[0] != "welcome_tree":
                raise TransportError(f"expected tree welcome, got {welcome!r}")
            _, blob, metas = welcome
            for child, conn in child_conns.items():
                if metas is None:
                    sub = None
                else:
                    sub = {r: metas[r] for r in subtree_ranks(child, nprocs) if r in metas}
                send_frame(conn, ("welcome_tree", blob, sub))
        finally:
            up.close()
    finally:
        for conn in child_conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if ctrl_listener is not None:
            ctrl_listener.close()
            try:
                os.unlink(ctrl_path(sockdir, rank))
            except OSError:  # pragma: no cover - already swept
                pass

    shared = pickle.loads(blob)
    meta = None if metas is None else metas.get(rank)
    return shared["peers"], shared["config"], meta


# ---------------------------------------------------------------------------
# Launcher side
# ---------------------------------------------------------------------------


def serve_tree_rendezvous(
    listener: socket.socket,
    nprocs: int,
    config: Any,
    metas: Optional[list],
    conns: dict[int, socket.socket],
    *,
    on_tick=None,
) -> None:
    """The launcher's half of the tree bootstrap.

    Accepts the root's aggregated hellos, answers with the once-pickled
    welcome blob, then collects every child's ``("register", rank)``
    connection into *conns* — the rank → direct-connection map the
    result/shutdown protocol runs over, filled in place so the caller
    still owns the connections registered so far if the wait is cut
    short.  *on_tick* (if given) runs on every accept timeout — the
    process backend hooks its deadline and child-liveness checks there;
    it aborts the wait by raising.
    """
    serve_tree_address_exchange(listener, nprocs, config, metas, on_tick=on_tick)
    while len(conns) < nprocs:
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            if on_tick is not None:
                on_tick()
            continue
        frame = recv_frame(conn, timeout=30.0)
        if not frame or frame[0] != "register":
            raise TransportError(f"expected register frame, got {frame!r}")
        conns[frame[1]] = conn


def serve_tree_address_exchange(
    listener: socket.socket,
    nprocs: int,
    config: Any,
    metas: Optional[list],
    *,
    on_tick=None,
) -> None:
    """The launcher's side of the tree address exchange alone: accept
    the root's aggregated hellos, answer with the once-pickled welcome
    blob.  The follow-up per-child registration is collected by
    :func:`serve_tree_rendezvous` (``bench_init`` drives only this
    part).
    """
    addrs: dict[int, str] = {}
    root_conn: Optional[socket.socket] = None
    while root_conn is None:
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            if on_tick is not None:
                on_tick()
            continue
        frame = recv_frame(conn, timeout=30.0)
        if not frame or frame[0] != "hellos":
            raise TransportError(f"expected aggregated hellos, got {frame!r}")
        root_conn = conn
        addrs.update(frame[2])
    if len(addrs) != nprocs:
        raise TransportError(
            f"aggregated hellos name {len(addrs)} ranks, expected {nprocs}"
        )

    blob = pickle.dumps(
        {"peers": dict(addrs), "config": config}, protocol=pickle.HIGHEST_PROTOCOL
    )
    meta_map = None if metas is None else {r: metas[r] for r in range(nprocs)}
    send_frame(root_conn, ("welcome_tree", blob, meta_map))
    root_conn.close()
