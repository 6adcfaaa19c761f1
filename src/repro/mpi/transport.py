"""The pluggable transport layer: how envelopes move between ranks.

MPICH-G2 (Karonis et al.) demonstrated that one MPI surface can run over
radically different substrates when delivery is hidden behind a
multi-protocol transport layer.  This module is that layer for the
simulated substrate: every remote delivery funnels through
:meth:`~repro.mpi.world.World.deliver`, which hands the envelope to the
world's :class:`Transport` on the process backend (the thread backend
has no transport: ranks share one interpreter and deliver straight into
the destination mailbox).

Two implementations:

* :class:`SocketTransport` — Unix-domain sockets with
  length-prefixed framing and per-peer connection caching; the substrate
  of the **process backend** (:mod:`repro.mpi.procbackend`), where every
  rank is a real OS process.  Envelopes are encoded with
  :func:`encode_envelope` (the payload crosses the wire as the
  :class:`~repro.mpi.serialization.Blob` bytes it was already encoded
  into), synchronous sends are completed by an ``ack`` frame from the
  receiver, and abort notifications ride the same connections.  No
  thread serves the inbound side: the rank's own thread, blocked in the
  progress engine, selects on its listener, its inbound connections and
  one wake socket, and decodes and dispatches what arrives
  (:meth:`SocketTransport.progress`) — the shape of MPICH ch3:sock, whose
  progress engine is the network poller.
* :class:`~repro.mpi.shm.ShmTransport` — a :class:`SocketTransport`
  whose same-node peer pairs exchange frames through shared-memory
  rings instead (:mod:`repro.mpi.shm`); the same loop drains the rings.

The wire format is deliberately simple and *testable*: a frame is a
4-byte big-endian length followed by that many payload bytes
(:func:`pack_frame` / :class:`FrameDecoder`).  A declared length beyond
:data:`MAX_FRAME_BYTES` and a stream that ends mid-frame both raise a
clean :class:`~repro.errors.TransportError` instead of hanging — the
property tests in ``tests/mpi/test_transport.py`` fuzz exactly these
edges (empty, 1-byte, multi-MiB, split reads, torn frames).
"""

from __future__ import annotations

import pickle
import select
import selectors
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Optional

from repro.errors import TransportError
from repro.mpi.mailbox import Envelope
from repro.mpi.progress import Completion
from repro.mpi.serialization import Blob

#: Pickle protocol for wire frames (control tuples and envelope payloads).
WIRE_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Hard ceiling on one frame's payload size.  A length prefix beyond this
#: is treated as stream corruption (a torn or misaligned frame), never as
#: a buffer to allocate — the difference between a clean
#: :class:`TransportError` and an out-of-memory hang.
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("!I")


# ---------------------------------------------------------------------------
# Framing: length-prefixed byte frames
# ---------------------------------------------------------------------------


def pack_frame(payload: bytes) -> bytes:
    """Wrap *payload* in the wire framing (4-byte big-endian length)."""
    n = len(payload)
    if n > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {n} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _LEN.pack(n) + payload


class FrameDecoder:
    """Incremental decoder of the length-prefixed wire format.

    Feed it byte chunks exactly as they come off a socket — any split is
    legal, including mid-header — and it yields complete frames in order.
    :meth:`finish` declares end-of-stream: leftover bytes mean the peer
    died mid-frame (a *torn frame*) and raise :class:`TransportError`.
    """

    def __init__(self) -> None:
        self._head = bytearray()  # length-prefix bytes of the next frame
        self._frame: Optional[bytearray] = None  # the frame being filled
        self._got = 0  # bytes of it filled

    def feed(self, data: bytes) -> list:
        """Absorb *data*; return every frame completed by it.

        A frame that spans chunks is filled in place, in a buffer of its
        declared length allocated once, so it is copied once however
        many chunks bring it (and comes back as that ``bytearray``); a
        frame whole in one chunk comes back as ``bytes``."""
        if self._frame is None and not self._head and len(data) > _LEN.size:
            (need,) = _LEN.unpack_from(data)
            if len(data) == _LEN.size + need:  # the common read
                return [data[_LEN.size :]]
        frames = []
        view = memoryview(data)
        while view:
            if self._frame is None:
                if not self._head and len(view) >= _LEN.size:
                    (need,) = _LEN.unpack_from(view)
                    view = view[_LEN.size :]
                else:
                    take = _LEN.size - len(self._head)
                    self._head += view[:take]
                    view = view[take:]
                    if len(self._head) < _LEN.size:
                        break
                    (need,) = _LEN.unpack(self._head)
                    self._head.clear()
                if need > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"corrupt stream: declared frame length {need} "
                        f"exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
                    )
                if len(view) >= need:  # whole in this chunk: one copy out
                    frames.append(view[:need].tobytes())
                    view = view[need:]
                    continue
                self._frame, self._got = bytearray(need), 0
            frame = self._frame
            take = min(len(view), len(frame) - self._got)
            frame[self._got : self._got + take] = view[:take]
            self._got += take
            view = view[take:]
            if self._got == len(frame):
                frames.append(frame)
                self._frame = None
        return frames

    @property
    def partial(self) -> bool:
        """Whether a frame is in progress (header or payload incomplete)."""
        return self._frame is not None or bool(self._head)

    def finish(self) -> None:
        """Declare end-of-stream; raise on a torn frame."""
        if self.partial:
            if self._frame is None:
                got, want = len(self._head), _LEN.size
            else:
                got, want = self._got, len(self._frame)
            raise TransportError(
                f"torn frame: stream ended with {got} of {want} expected bytes"
            )


def send_frame(sock: socket.socket, obj) -> int:
    """Pickle *obj* and send it as one frame; returns bytes written."""
    frame = pack_frame(pickle.dumps(obj, protocol=WIRE_PICKLE_PROTOCOL))
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket, timeout: Optional[float] = None):
    """Receive exactly one pickled frame from *sock* (blocking).

    Returns the unpickled object, or ``None`` on a clean EOF before any
    byte.  A stream that ends mid-frame raises :class:`TransportError`.
    """
    sock.settimeout(timeout)
    header = _recv_exact(sock, _LEN.size, mid_frame=False)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"corrupt stream: declared frame length {length} "
            f"exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return pickle.loads(_recv_exact(sock, length, mid_frame=True))


def _recv_exact(sock: socket.socket, n: int, mid_frame: bool) -> Optional[bytearray]:
    """Read exactly *n* bytes and no more, so a peer's next frame stays
    in the socket for the next :func:`recv_frame` call.  EOF before the
    first byte of a frame (*mid_frame* false) returns ``None``; any
    later EOF is a torn frame."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            k = sock.recv_into(view[got:])
        except socket.timeout:
            raise TransportError("timed out waiting for a frame") from None
        if not k:
            if not got and not mid_frame:
                return None
            raise TransportError(
                f"torn frame: stream ended with {got} of {n} expected bytes"
            )
        got += k
    return buf


# ---------------------------------------------------------------------------
# Envelope wire encoding
# ---------------------------------------------------------------------------


def encode_envelope(env: Envelope, sync_id: int = 0, from_rank: int = -1) -> bytes:
    """Encode an envelope for the wire.

    The :class:`Blob` payload crosses as its already-encoded bytes (pickle
    blobs are *not* re-pickled into a nested pickle; the array snapshot
    of an array blob is carried as-is).  *sync_id* is nonzero for
    synchronous sends: the receiver acks it when the message is matched.  *from_rank* is the sender's
    **world** rank — ``env.source`` is comm-local, so the ack route must
    travel explicitly.
    """
    blob = env.payload
    data = blob.data
    if type(data) is memoryview:
        # A blob mapped zero-copy from a shm page holds a memoryview;
        # relaying it over a socket must materialise the bytes
        # (memoryviews don't pickle).
        data = data.tobytes()
    return pickle.dumps(
        (
            "msg",
            env.context,
            env.source,
            env.tag,
            env.kind,
            env.count,
            env.op,
            sync_id,
            from_rank,
            (blob.kind, data, blob.nbytes),
        ),
        protocol=WIRE_PICKLE_PROTOCOL,
    )


def decode_envelope(fields: tuple) -> tuple[Envelope, int, int]:
    """Rebuild ``(envelope, sync_id, from_rank)`` from a ``"msg"`` frame."""
    _, context, source, tag, kind, count, op, sync_id, from_rank, wire_blob = fields
    blob_kind, data, nbytes = wire_blob
    if blob_kind == "array":
        data.flags.writeable = False  # restore the snapshot invariant
    env = Envelope(context, source, tag, Blob(blob_kind, data, nbytes), kind, count, op=op)
    return env, sync_id, from_rank


# ---------------------------------------------------------------------------
# The transport interface
# ---------------------------------------------------------------------------


class Transport(ABC):
    """How one rank's envelopes reach its peers.

    Implementations must be safe to call from any thread: a rank's own
    thread sends, and its watchdog may broadcast an abort meanwhile.
    """

    #: Short name for diagnostics ("unix", "shm").
    kind: str = "?"

    #: Seconds the progress engine turns :meth:`progress` without
    #: waiting before it blocks in it (the shm rings set one; a socket
    #: has nothing to poll).
    progress_poll_s: float = 0.0

    @abstractmethod
    def send_envelope(self, dest: int, env: Envelope) -> None:
        """Deliver *env* to world rank *dest* (eager: buffered at the
        destination before returning)."""

    @abstractmethod
    def progress(self, timeout: Optional[float] = None) -> None:
        """Receive and dispatch what has arrived, on the calling thread,
        waiting up to *timeout* seconds (``None``: until something does,
        or :meth:`wake`) when nothing has."""

    @abstractmethod
    def wake(self) -> None:
        """Make a thread blocked in :meth:`progress` return (any thread)."""

    @abstractmethod
    def alive(self, peer: int) -> bool:
        """Whether *peer* is believed reachable."""

    @abstractmethod
    def close(self) -> None:
        """Tear the endpoint down (idempotent)."""

    def forget_peer(self, peer: int) -> None:
        """Invalidate every cached resource tied to *peer*, which has
        left the job *on purpose* (``Session.retire``).

        Unlike a crash (``on_peer_lost``) this is not a failure: the
        peer's connection teardown must not be reported as a lost rank,
        and later sends to it are misuse, not bad luck.  The base
        implementation is a no-op."""


class _SyncAck:
    """The receiver-side stand-in for a synchronous send's completion
    token: ``set()`` (called by the mailbox at match time) sends an
    ``ack`` frame back to the sender instead of signalling locally."""

    __slots__ = ("_transport", "_source", "_sync_id", "_fired")

    def __init__(self, transport: "SocketTransport", source: int, sync_id: int):
        self._transport = transport
        self._source = source
        self._sync_id = sync_id
        self._fired = False

    def set(self) -> None:
        if self._fired:
            return
        self._fired = True
        try:
            self._transport.send_control(self._source, ("ack", self._sync_id))
        except TransportError:
            # The sender is gone; nobody is left to wake.
            pass


class _Inbound:
    """One accepted connection: its socket, its frame decoder, and the
    world rank speaking on it once a frame has said so (-1 until then)."""

    __slots__ = ("sock", "decoder", "origin")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.origin = -1


# Selector keys that are not an inbound connection.
_ACCEPT, _WAKE, _WRITABLE, _EXTERNAL = "accept", "wake", "writable", "external"

#: Bytes asked of one ``recv`` on a readable connection.
_RECV_BYTES = 65536

#: Seconds a thread that finds another one driving the loop waits for
#: it before returning to its own caller (who re-tests and calls again).
_HANDOFF = 0.05


class SocketTransport(Transport):
    """Framed envelope delivery over Unix-domain sockets.

    Parameters
    ----------
    rank, nprocs :
        This endpoint's world rank and the world size.
    listener :
        A bound, listening socket owned by this rank (created during the
        bootstrap handshake, *before* any peer learns its address, so a
        connecting sender can never race the listener into existence).
    peers :
        ``world rank -> address`` map from the rendezvous (an address is
        the path of the peer's listener).

    Outbound connections are cached per peer and serialized by a per-peer
    lock (frames from concurrent senders interleave at frame granularity,
    never inside one).  The inbound side has no thread of its own: one
    selector holds the listener, every accepted connection and a wake
    socket, and :meth:`progress` — called by the rank's own thread from
    the progress engine — accepts, reads, decodes and dispatches.
    Decoded envelopes are injected through :attr:`deliver_local`, acks
    complete the registered synchronous sends, and ``abort`` frames are
    routed to :attr:`on_abort`.  A send that would block reads inbound
    bytes into the decoders meanwhile (two ranks sending each other more
    than a socket buffer both complete), and dispatches them at the next
    :meth:`progress`.
    """

    kind = "unix"

    def __init__(
        self,
        rank: int,
        nprocs: int,
        listener: socket.socket,
        peers: dict[int, str],
    ):
        self.rank = rank
        self.nprocs = nprocs
        self._listener = listener
        self._peers = dict(peers)
        #: Injects an inbound envelope into the local mailbox.  Bound by
        #: the process backend after the world exists.
        self.deliver_local: Callable[[Envelope], None] = lambda env: None
        #: Called with ``(origin_rank, message)`` on an inbound abort.
        self.on_abort: Callable[[int, str], None] = lambda origin, msg: None
        #: Called with the :class:`TransportError` when an inbound stream
        #: tears mid-frame.
        self.on_error: Callable[[TransportError], None] = lambda exc: None
        #: Called with ``(sent_bytes, received_bytes)`` per wire transfer;
        #: the process backend binds this to ``World.record_wire`` so the
        #: socket path shows up in :class:`~repro.mpi.world.TrafficStats`.
        self.on_wire: Callable[[int, int], None] = lambda sent, received: None
        #: Called with the world rank of a peer whose connection died
        #: while the transport was still open (crash detection seam; the
        #: process backend binds this to ``World.proc_failed`` so
        #: receives posted against the dead rank raise instead of
        #: hanging).
        self.on_peer_lost: Callable[[int], None] = lambda peer: None

        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._conns_lock = threading.Lock()
        self._dead_peers: set[int] = set()
        #: Peers removed on purpose (``forget_peer``) — distinct from
        #: ``_dead_peers``: their EOFs are expected, not failures.
        self._departed: set[int] = set()

        self._sync_lock = threading.Lock()
        self._next_sync_id = 1
        self._sync_waiters: dict[int, Completion] = {}

        self._closed = False
        #: Held by whichever thread turns the loop: the selector, the
        #: decoders and the backlog are that thread's alone.
        self._rx_lock = threading.RLock()
        #: Read but not yet dispatched, in arrival order: ``(inbound or
        #: None, frame)``, or ``(inbound, None | TransportError)`` for a
        #: connection that ended cleanly or torn.
        self._backlog: deque = deque()
        self._external_ready = False
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, _ACCEPT)
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.wake()  # a thread blocked in progress() returns and sees it
        locked = self._rx_lock.acquire(timeout=1.0)
        try:
            self._release()
        finally:
            if locked:
                self._rx_lock.release()

    def _release(self) -> None:
        """Close every descriptor the endpoint owns (under the loop's
        lock, once)."""
        # shutdown() before close(): the kernel keeps completing
        # handshakes on the listener's behalf until close() returns — a
        # sender could still "successfully" connect to a closed
        # endpoint.  shutdown() revokes the listen state at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        inbound = [
            key.data.sock
            for key in self._sel.get_map().values()
            if isinstance(key.data, _Inbound)
        ]
        self._sel.close()
        with self._conns_lock:
            outbound = list(self._conns.values())
            self._conns.clear()
        for sock in [self._listener, self._wake_r, self._wake_w, *inbound, *outbound]:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    # -- outbound ----------------------------------------------------------

    def send_envelope(self, dest: int, env: Envelope) -> None:
        if dest == self.rank:
            self.deliver_local(env)
            return
        sync_id = self._register_sync(env)
        try:
            self._send_bytes(dest, encode_envelope(env, sync_id, self.rank))
        except TransportError:
            self._unregister_sync(sync_id)
            raise

    def _register_sync(self, env: Envelope) -> int:
        """Register a synchronous send's completion token; returns its
        ack id (0 for a plain send)."""
        if env.sync_event is None:
            return 0
        with self._sync_lock:
            sync_id = self._next_sync_id
            self._next_sync_id += 1
            self._sync_waiters[sync_id] = env.sync_event
        return sync_id

    def _unregister_sync(self, sync_id: int) -> None:
        if sync_id:
            with self._sync_lock:
                self._sync_waiters.pop(sync_id, None)

    def send_control(self, dest: int, fields: tuple) -> None:
        """Send a non-envelope control frame (``ack``/``abort``)."""
        self._send_bytes(dest, pickle.dumps(fields, protocol=WIRE_PICKLE_PROTOCOL))

    def broadcast_abort(self, origin: int, message: str) -> None:
        """Best-effort abort notification to every peer (unreachable
        peers are skipped: they are either already dead or will be torn
        down by the launcher)."""
        for peer in self._peers:
            if peer == self.rank:
                continue
            try:
                self.send_control(peer, ("abort", origin, message))
            except TransportError:
                continue

    def forget_peer(self, peer: int) -> None:
        self._departed.add(peer)
        self._drop_conn(peer)
        with self._conns_lock:
            self._send_locks.pop(peer, None)
            self._peers.pop(peer, None)

    def _send_bytes(self, dest: int, payload: bytes) -> None:
        if dest in self._departed:
            raise TransportError(
                f"world rank {dest} retired from the job; no messages can "
                "reach it"
            )
        if dest not in self._peers:
            raise TransportError(f"no address for world rank {dest}")
        n = len(payload)
        if n > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {n} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES})"
            )
        lock = self._send_locks.get(dest)
        if lock is None:
            lock = self._send_locks.setdefault(dest, threading.Lock())
        with lock:
            sock = self._connect(dest)
            try:
                # Header and payload go down in one vectored send: no
                # pack_frame concatenation, so a multi-MiB payload is
                # never copied just to prepend its 4-byte length.
                self._send_parts(sock, [_LEN.pack(n), payload])
            except OSError as exc:
                self._drop_conn(dest)
                self._dead_peers.add(dest)
                raise TransportError(
                    f"send to world rank {dest} failed: {exc}"
                ) from exc
        self.on_wire(n + _LEN.size, 0)

    def _send_parts(self, sock: socket.socket, parts: list) -> None:
        """``sendall`` of several buffers without concatenating them,
        resuming partial sends with zero-copy memoryview slices; while
        the socket takes no more, :meth:`_await_writable`."""
        views = [memoryview(p) for p in parts if len(p)]
        while views:
            try:
                sent = sock.sendmsg(views)
            except BlockingIOError:
                self._await_writable(sock)
                continue
            while sent:
                head = len(views[0])
                if sent >= head:
                    sent -= head
                    del views[0]
                else:
                    views[0] = views[0][sent:]
                    sent = 0

    def _await_writable(self, sock: socket.socket) -> None:
        """Wait until *sock* takes more bytes, reading what the peers
        send us meanwhile: the peer we write to may itself be blocked
        writing to us, and reads only once we do.  What is read goes
        into the decoders and the backlog, not to the mailbox — this
        thread is in the middle of a frame on *sock*, and dispatching
        could send on it.  A thread that finds another one turning the
        loop leaves the reading to that one."""
        if not self._rx_lock.acquire(blocking=False):
            writable = select.poll()
            writable.register(sock, select.POLLOUT)
            writable.poll(_HANDOFF * 1000)
            return
        try:
            if self._closed:
                raise TransportError("transport closed during a send")
            self._sel.register(sock, selectors.EVENT_WRITE, _WRITABLE)
            try:
                self._pump(None)
            finally:
                self._sel.unregister(sock)
        finally:
            self._rx_lock.release()

    def _connect(self, dest: int) -> socket.socket:
        with self._conns_lock:
            sock = self._conns.get(dest)
        if sock is not None:
            return sock
        addr = self._peers[dest]
        try:
            sock = connect(addr)
        except OSError as exc:
            self._dead_peers.add(dest)
            raise TransportError(
                f"cannot connect to world rank {dest} at {addr!r}: {exc}"
            ) from exc
        sock.setblocking(False)
        with self._conns_lock:
            self._conns[dest] = sock
        return sock

    def _drop_conn(self, dest: int) -> None:
        with self._conns_lock:
            sock = self._conns.pop(dest, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    # -- inbound: the progress loop ----------------------------------------

    def progress(self, timeout: Optional[float] = None) -> None:
        """One turn of the rank's progress loop, on the calling thread:
        accept new connections, read every readable one, then decode and
        dispatch every complete frame in arrival order.

        With nothing ready it waits up to *timeout* seconds (``None``:
        until a peer sends, connects or hangs up, or :meth:`wake` is
        called; ``0``: not at all).  A thread that finds another one
        turning the loop waits at most :data:`_HANDOFF` for it and
        returns, so its caller can re-test what it waits for."""
        if not self._rx_lock.acquire(blocking=False):
            if timeout == 0:
                return
            if not self._rx_lock.acquire(timeout=_HANDOFF if timeout is None else timeout):
                return
        try:
            if self._closed:
                if timeout != 0:  # nothing will ever arrive: don't spin a waiter
                    time.sleep(_HANDOFF)
                return
            if self._gather(park=timeout != 0) or self._backlog:
                timeout = 0
            self._pump(timeout)
            self._dispatch_backlog()
        finally:
            self._rx_lock.release()

    def wake(self) -> None:
        """Make a thread blocked in :meth:`progress` return (safe from
        any thread; a wake nobody waits for ends the next wait early)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a full wake socket already wakes; a closed one has nobody

    def progress_until_readable(self, sock: socket.socket) -> None:
        """Turn the loop until *sock*, a socket of the caller's, is
        readable — what a rank that has returned does while it waits for
        the launcher's next frame: a peer may still be sending to it,
        and a send larger than the socket buffer completes only once
        this end reads it."""
        with self._rx_lock:
            self._sel.register(sock, selectors.EVENT_READ, _EXTERNAL)
            self._external_ready = False
        try:
            while not self._external_ready and not self._closed:
                self.progress(None)
        finally:
            with self._rx_lock:
                if not self._closed:
                    self._sel.unregister(sock)

    def _gather(self, park: bool) -> bool:
        """Collect frames that arrive other than by socket into the
        backlog before the selector is consulted; *park* says the loop
        is about to block.  Returns whether any were collected.  Sockets
        only: nothing."""
        return False

    def _pump(self, timeout: Optional[float]) -> None:
        """One selector pass: accept, read into the decoders, note what
        else fired.  Dispatches nothing."""
        for key, _ in self._sel.select(timeout):
            what = key.data
            if what is _ACCEPT:
                self._accept()
            elif what is _WAKE:
                try:
                    while self._wake_r.recv(4096):
                        pass
                except OSError:
                    pass
            elif what is _EXTERNAL:
                self._external_ready = True
            elif what is not _WRITABLE:
                self._read(what)

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            conn.setblocking(False)
            self._sel.register(conn, selectors.EVENT_READ, _Inbound(conn))

    def _read(self, inbound: _Inbound) -> None:
        """Read a readable connection into its decoder — again while
        whole chunks come back, so a large frame costs one select, not
        one a chunk — and backlog what it completes; a connection that
        ended is closed and backlogged as such."""
        end = None
        while True:
            try:
                data = inbound.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                break
            self.on_wire(0, len(data))
            try:
                for frame in inbound.decoder.feed(data):
                    self._backlog.append((inbound, frame))
            except TransportError as exc:  # a corrupt length prefix
                end = exc
                break
            if len(data) < _RECV_BYTES:
                return
        if end is None and inbound.decoder.partial:
            try:
                inbound.decoder.finish()
            except TransportError as exc:
                end = exc
        self._sel.unregister(inbound.sock)
        inbound.sock.close()
        self._backlog.append((inbound, end))

    def _dispatch_backlog(self) -> None:
        """Decode and dispatch every backlogged frame, in arrival order
        — the one place inbound frames are decoded.  A dispatch that
        sends (an ack) and has to wait reads more into the backlog,
        which this loop then dispatches too."""
        backlog = self._backlog
        while backlog:
            inbound, item = backlog.popleft()
            if item is not None and not isinstance(item, TransportError):
                try:
                    fields = pickle.loads(item)
                    if inbound is not None:
                        peer = self._frame_origin(fields)
                        if peer >= 0:
                            inbound.origin = peer
                    self._dispatch(fields)
                except TransportError as exc:
                    self.on_error(exc)
                continue
            if item is not None:
                self.on_error(item)
            self._conn_closed(inbound.origin)

    def _frame_origin(self, fields: tuple) -> int:
        """World rank that sent this frame, or -1 if it doesn't say."""
        if fields[0] == "msg":
            return fields[8]
        return -1

    def _conn_closed(self, origin: int) -> None:
        """An inbound connection from world rank *origin* (or -1 if it
        never identified itself) ended while we are still open.

        On the process backend that means the peer's process is gone
        (children only close after the parent's shutdown broadcast,
        which only happens after every result arrived), so surface it
        through ``on_peer_lost`` — receives posted against the dead
        rank then raise instead of blocking forever.

        A *departed* peer (``forget_peer``) closing its side is the
        expected end of a planned retirement — silently ignored."""
        if origin < 0 or self._closed or origin in self._departed:
            return
        # No "already in _dead_peers" shortcut: a failed *send* to the
        # peer (say, a page release racing its exit) marks it dead
        # without telling anyone, and this EOF is then the one
        # notification the world gets.  ``on_peer_lost`` is idempotent.
        self._dead_peers.add(origin)
        self.on_peer_lost(origin)

    def _dispatch(self, fields: tuple) -> None:
        tag = fields[0]
        if tag == "msg":
            env, sync_id, from_rank = decode_envelope(fields)
            if sync_id:
                env.sync_event = _SyncAck(self, from_rank, sync_id)
            self.deliver_local(env)
        elif tag == "ack":
            with self._sync_lock:
                waiter = self._sync_waiters.pop(fields[1], None)
            if waiter is not None:
                waiter.set()
        elif tag == "abort":
            self.on_abort(fields[1], fields[2])
        else:  # pragma: no cover - future protocol versions
            raise TransportError(f"unknown wire frame {tag!r}")

    # -- introspection -----------------------------------------------------

    def alive(self, peer: int) -> bool:
        return (
            not self._closed
            and peer in self._peers
            and peer not in self._dead_peers
        )


# ---------------------------------------------------------------------------
# Listener construction (shared by bootstrap and tests)
# ---------------------------------------------------------------------------


def connect(path: str) -> socket.socket:
    """Connect to the listener :func:`make_listener` bound at *path*."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(path)
    except OSError:
        sock.close()
        raise
    return sock


def make_listener(path: str) -> socket.socket:
    """Create a Unix-domain socket bound at *path* and listening; the
    path is its address."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    # Peers connect on their first send, whenever that is, and are
    # accepted when this rank next turns its progress loop: room for
    # every rank of a large world to be waiting at once.
    sock.listen(socket.SOMAXCONN)
    return sock
