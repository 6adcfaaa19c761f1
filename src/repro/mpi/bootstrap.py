"""Rank rendezvous of the process backend: a star around the launcher.

The launcher is the one exchange point every rank talks to — the process
manager of Butler, Gropp & Lusk.  Each rank makes one connection and one
round trip:

* A child binds its *data* listener first (so no sender can race it),
  connects to the job's rendezvous socket and sends
  ``("hello", rank, data_addr)``.
* Once every rank has said hello, the launcher pickles the shared
  welcome payload — the peer map and what every rank builds its world
  from (the process backend sends its
  :class:`~repro.mpi.world.WorldConfig` and node map) — **once**, and
  sends each rank ``("welcome", blob, meta)`` on that rank's own
  connection, *meta* being its per-rank launcher metadata.
* The child keeps the connection: it carries the result frame, the
  shutdown linger and, by its EOF, the news of a silent death.

Both halves live here, so the frame format is known to this module
alone.  The rendezvous socket sits at a fixed path in the job's private
socket directory, so a child needs nothing but that directory and its
rank to join; the addresses the welcome *carries* are the ranks' data
listeners, so socket and shm jobs of any size, down to one rank, form
the same way.
"""

from __future__ import annotations

import pickle
import selectors
import socket
from typing import Any, Callable, Optional, Sequence

from repro.errors import TransportError
from repro.mpi.transport import connect, recv_frame, send_frame

#: How often the launcher runs its liveness and deadline checks while no
#: connection or hello arrives.
_TICK = 0.2
#: How long a hello may take once its connection turned readable: one
#: small frame, so only a child that died or hung mid-write runs it out.
_HELLO_TIMEOUT = 1.0


def child_rendezvous(
    rendezvous: str, rank: int, data_addr: str
) -> tuple[dict[int, str], Any, Any, socket.socket]:
    """One child's half: hello, then wait for the welcome.

    Returns ``(peers, shared, meta, conn)``: *shared* is what the
    launcher passed :func:`serve_rendezvous` for every rank, and *conn*
    the launcher connection, kept for the rest of the child's protocol.
    The wait has no timeout of its own: the launcher owns the job's
    deadline and terminates a child it gives up on, and its death is an
    EOF here.
    """
    conn = connect(rendezvous)
    try:
        send_frame(conn, ("hello", rank, data_addr))
        welcome = recv_frame(conn)
        if not welcome or welcome[0] != "welcome":
            raise TransportError(f"expected a welcome, got {welcome!r}")
    except BaseException:
        conn.close()
        raise
    _, blob, meta = welcome
    payload = pickle.loads(blob)
    return payload["peers"], payload["shared"], meta, conn


def serve_rendezvous(
    listener: socket.socket,
    nprocs: int,
    shared: Any,
    metas: Sequence[Any],
    conns: dict[int, socket.socket],
    *,
    on_tick: Optional[Callable[[], None]] = None,
) -> None:
    """The launcher's half: take one hello from each of *nprocs* ranks,
    then welcome every one of them with the peer map and *shared*
    (``metas[rank]`` is its meta).

    Each rank's connection goes into *conns* as its hello arrives —
    filled in place, so the caller owns the connections taken so far if
    the wait is cut short.  *on_tick* (if given) runs whenever nothing
    arrives for :data:`_TICK` seconds; the process backend checks its
    deadline and the children's liveness there, and aborts by raising.
    """
    addrs: dict[int, str] = {}
    with selectors.DefaultSelector() as sel:
        sel.register(listener, selectors.EVENT_READ)
        try:
            while len(conns) < nprocs:
                events = sel.select(_TICK)
                if not events and on_tick is not None:
                    on_tick()
                for key, _ in events:
                    if key.fileobj is listener:
                        sel.register(listener.accept()[0], selectors.EVENT_READ)
                        continue
                    conn = key.fileobj
                    sel.unregister(conn)
                    try:
                        hello = recv_frame(conn, timeout=_HELLO_TIMEOUT)
                    except TransportError:
                        hello = None
                    if hello is None:
                        # The child died between connect and hello: not
                        # the job's error — the liveness tick names it.
                        conn.close()
                        continue
                    if hello[0] != "hello" or hello[1] not in range(nprocs) or hello[1] in conns:
                        conn.close()
                        raise TransportError(f"unexpected rendezvous frame {hello!r}")
                    conn.settimeout(None)  # the welcome is sent whole, however wide the world
                    conns[hello[1]] = conn
                    addrs[hello[1]] = hello[2]
        finally:
            for key in list(sel.get_map().values()):
                if key.fileobj is not listener:
                    key.fileobj.close()

    blob = pickle.dumps(
        {"peers": dict(sorted(addrs.items())), "shared": shared},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    for rank, conn in conns.items():
        try:
            send_frame(conn, ("welcome", blob, metas[rank]))
        except OSError:
            pass  # died after its hello: collecting its result names it
