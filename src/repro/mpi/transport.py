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
  :func:`encode_envelope`, synchronous sends are completed by an ``ack``
  frame from the receiver, and abort notifications ride the same
  connections.  No thread serves the inbound side: the rank's own
  thread, blocked in the progress engine, polls its listener, its
  inbound connections and one wake socket, and decodes and dispatches
  what arrives (:meth:`SocketTransport.progress`) — the shape of MPICH
  ch3:sock, whose progress engine is the network poller.
* :class:`~repro.mpi.shm.ShmTransport` — a :class:`SocketTransport`
  whose same-node peer pairs exchange frames through shared-memory
  rings instead (:mod:`repro.mpi.shm`); the same loop drains the rings,
  and the frames are the same.

The wire format is deliberately simple and *testable*.  On a socket a
frame is a 4-byte big-endian length followed by that many bytes
(:func:`pack_frame` / :class:`FrameDecoder`); a shm ring record carries
the same bytes under its own length word.  A declared length beyond
:data:`MAX_FRAME_BYTES` and a stream that ends mid-frame both raise a
clean :class:`~repro.errors.TransportError` instead of hanging — the
property tests in ``tests/mpi/test_transport.py`` fuzz exactly these
edges (empty, 1-byte, multi-MiB, split reads, torn frames).  A frame's
bytes are one of two things, told apart by the first byte:

* a **message** (``M``, :func:`encode_envelope`): a fixed
  :data:`_MSG` header — routing (context, comm-local source, tag), the
  verb family, ``Status`` count, sync-ack id, the sender's world rank,
  the payload's kind and size — then the collective operation's name
  and an array's shape and dtype when there are any, then the
  :class:`~repro.mpi.serialization.Blob`'s bytes *as they are*: a
  pickle blob's pickle, an array snapshot's raw memory.  The sender
  hands header and payload to one ``sendmsg`` as separate buffers, and
  the receiver slices the frame — no second pickle around the first,
  no copy into or out of one;
* a **control** frame (``ack``, ``abort``, and the shm transport's
  ``kick``, ``pfree`` and page-pool ``msgp``): a pickled tuple, whose
  first byte is pickle's protocol marker.
"""

from __future__ import annotations

import math
import pickle
import select
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.errors import TransportError
from repro.mpi.mailbox import Envelope
from repro.mpi.progress import Completion
from repro.mpi.serialization import Blob

#: Pickle protocol for control frames.
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

        A frame whole in one chunk comes back as a ``memoryview`` of
        *data* — not copied — so *data* must not change afterwards (a
        socket read's ``bytes`` does not).  A frame that spans chunks is
        filled in place, in a buffer of its declared length allocated
        once, so it is copied once however many chunks bring it (and
        comes back as that ``bytearray``)."""
        if self._frame is None and not self._head and len(data) > _LEN.size:
            (need,) = _LEN.unpack_from(data)
            if len(data) == _LEN.size + need:  # the common read
                return [memoryview(data)[_LEN.size :]]
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
                if len(view) >= need:  # whole in this chunk: no copy
                    frames.append(view[:need])
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


#: A message frame's fixed header: the ``M`` mark, verb family, payload
#: kind, op-name length + 1 (0: no op), array-meta length, context,
#: comm-local source, tag, ``Status`` count, sync-ack id (0: a plain
#: send), sender world rank, payload bytes.
_MSG = struct.Struct("!BBBBHqiqqqiq")
_MSG_MARK = 0x4D  # "M"; a pickled control frame starts with 0x80

#: Verb families (``Envelope.kind``) by their header code.
_KINDS = ("object", "buffer", "bufcoll")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

#: Payload kinds by header code: a pickle blob's bytes, an array
#: snapshot's raw memory (the meta holds its shape and dtype), or an
#: array whose dtype does not travel as a string (fields, a zero item
#: size), pickled whole.
_PICKLE, _RAW_ARRAY, _PICKLED_ARRAY = 0, 1, 2


def array_wire(arr: np.ndarray) -> tuple:
    """``(payload kind, meta, bytes)`` an array snapshot travels as —
    in a message frame, or in a shm pool page: its raw memory with
    ``b"<shape>;<dtype string>"`` as meta, or, for a dtype that string
    cannot rebuild, the pickled array with no meta."""
    dt = arr.dtype
    if dt.names is None and dt.subdtype is None and dt.itemsize:
        meta = f"{','.join(map(str, arr.shape))};{dt.str}".encode()
        return _RAW_ARRAY, meta, arr.reshape(-1).view(np.uint8) if arr.size else b""
    return _PICKLED_ARRAY, b"", pickle.dumps(arr, protocol=WIRE_PICKLE_PROTOCOL)


def array_from_wire(kind: int, meta, buf, offset: int, nbytes: int) -> np.ndarray:
    """The read-only array :func:`array_wire` sent, from the *nbytes*
    at *offset* of *buf*: a view of *buf* for raw memory (its ``base``
    is the flat view every view of it collapses to), a private array for
    a pickled one."""
    if kind == _RAW_ARRAY:
        dims, _, descr = bytes(meta).decode().partition(";")
        dt = np.dtype(descr)
        flat = np.frombuffer(buf, dtype=dt, count=nbytes // dt.itemsize, offset=offset)
        data = flat.reshape(tuple(map(int, dims.split(","))) if dims else ())
    else:
        data = pickle.loads(memoryview(buf)[offset : offset + nbytes])
    data.flags.writeable = False  # the snapshot invariant
    return data


def encode_envelope(env: Envelope, sync_id: int = 0, from_rank: int = -1) -> tuple:
    """Encode an envelope for the wire as ``(header, payload)``: a message
    frame's bytes are the two back to back, sent as separate buffers in
    one ``sendmsg`` (or written one after the other into a shm ring).

    The payload is the :class:`Blob`'s bytes as they are — a pickle
    blob's pickle, an array snapshot's memory — never pickled again.
    *sync_id* is nonzero for synchronous sends: the receiver acks it when
    the message is matched.  *from_rank* is the sender's **world** rank —
    ``env.source`` is comm-local, so the ack route must travel
    explicitly.
    """
    blob = env.payload
    if blob.kind == "array":
        payload_kind, meta, data = array_wire(blob.data)
    else:
        payload_kind, meta, data = _PICKLE, b"", blob.data
    op = env.op
    if op is not None:
        op = op.encode()
    head = _MSG.pack(
        _MSG_MARK,
        _KIND_CODES[env.kind],
        payload_kind,
        0 if op is None else len(op) + 1,
        len(meta),
        env.context,
        env.source,
        env.tag,
        env.count,
        sync_id,
        from_rank,
        len(data),
    )
    if op is not None:
        head += op
    if meta:
        head += meta
    return head, data


def decode_envelope(frame) -> tuple[Envelope, int, int]:
    """Rebuild ``(envelope, sync_id, from_rank)`` from a message frame's
    bytes (a ``bytes``, ``bytearray`` or ``memoryview``).  The payload is
    a view of *frame*, not a copy: a pickle blob's data is a
    ``memoryview``, an array blob's data a read-only array over it."""
    try:
        (_, kind, payload_kind, oplen, metalen, context, source, tag, count,
         sync_id, from_rank, nbytes) = _MSG.unpack_from(frame)
    except struct.error as exc:
        raise TransportError(f"corrupt message frame: {exc}") from None
    off = _MSG.size
    op = None
    if oplen:
        op = bytes(frame[off : off + oplen - 1]).decode()
        off += oplen - 1
    if payload_kind == _PICKLE:
        blob = Blob("pickle", memoryview(frame)[off:], nbytes)
    else:
        data = array_from_wire(
            payload_kind, frame[off : off + metalen], frame, off + metalen, nbytes
        )
        blob = Blob("array", data, data.nbytes)
    env = Envelope(context, source, tag, blob, _KINDS[kind], count, None, op)
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
    def wire_bytes(self) -> tuple[int, int]:
        """``(sent, received)`` wire bytes of this endpoint so far."""

    @abstractmethod
    def close(self) -> None:
        """Tear the endpoint down (idempotent)."""


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


# Poll-set entries that are not an inbound connection.
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
    ``poll`` set holds the listener, every accepted connection and a wake
    socket, and :meth:`progress` — called by the rank's own thread from
    the progress engine — accepts, reads, decodes and dispatches.
    Decoded envelopes are injected through :attr:`deliver_local`, acks
    complete the registered synchronous sends, and ``abort`` frames are
    routed to :attr:`on_abort`.  A send that would block reads inbound
    bytes into the decoders meanwhile (two ranks sending each other more
    than a socket buffer both complete), and dispatches them at the next
    :meth:`progress`.  The endpoint counts its own wire bytes
    (:meth:`wire_bytes`), which the world's traffic snapshot reads.
    """

    kind = "unix"

    #: Collects frames that arrive other than by socket into the backlog
    #: before the poll set is consulted — ``gather(park) -> bool``, where
    #: *park* says the loop is about to block — or ``None`` (sockets only).
    _gather = None

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

        self._sync_lock = threading.Lock()
        self._next_sync_id = 1
        self._sync_waiters: dict[int, Completion] = {}

        #: Guards the send-side counters (any thread sends); the receive
        #: side's are the loop's alone.
        self._stats_lock = threading.Lock()
        self._wire_sent = 0
        self._wire_received = 0

        self._closed = False
        #: Held by whichever thread turns the loop: the poll set, the
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
        self._poll = select.poll()
        #: fd -> what it is: a marker, or the connection's ``_Inbound``.
        self._fds: dict[int, object] = {}
        self._watch(listener, select.POLLIN, _ACCEPT)
        self._watch(self._wake_r, select.POLLIN, _WAKE)

    def _watch(self, sock: socket.socket, events: int, what) -> None:
        fd = sock.fileno()
        self._poll.register(fd, events)
        self._fds[fd] = what

    def _unwatch(self, sock: socket.socket) -> None:
        fd = sock.fileno()
        if self._fds.pop(fd, None) is not None:
            self._poll.unregister(fd)

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
        inbound = [what.sock for what in self._fds.values() if isinstance(what, _Inbound)]
        self._fds.clear()
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
        sync_id = 0 if env.sync_event is None else self._register_sync(env)
        try:
            self._send_bytes(dest, encode_envelope(env, sync_id, self.rank))
        except TransportError:
            self._unregister_sync(sync_id)
            raise

    def _register_sync(self, env: Envelope) -> int:
        """Register a synchronous send's completion token; returns its
        ack id."""
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
        """Send a control frame (``ack``/``abort``): a pickled tuple."""
        self._send_bytes(dest, (pickle.dumps(fields, protocol=WIRE_PICKLE_PROTOCOL),))

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

    def _send_bytes(self, dest: int, parts: tuple) -> None:
        """Send one frame made of *parts* (its bytes, back to back) to
        world rank *dest*: the length prefix and the parts go down in one
        vectored send, so no part is copied to join them."""
        if dest not in self._peers:
            raise TransportError(f"no address for world rank {dest}")
        n = 0
        for part in parts:
            n += len(part)
        if n > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {n} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES})"
            )
        total = n + _LEN.size
        lock = self._send_locks.get(dest)
        if lock is None:
            lock = self._send_locks.setdefault(dest, threading.Lock())
        with lock:
            sock = self._conns.get(dest)
            if sock is None:
                sock = self._connect(dest)
            buffers = [_LEN.pack(n), *parts]
            try:
                try:
                    sent = sock.sendmsg(buffers)
                except BlockingIOError:
                    sent = 0
                if sent != total:
                    self._send_rest(sock, buffers, sent)
            except OSError as exc:
                self._drop_conn(dest)
                self._dead_peers.add(dest)
                raise TransportError(
                    f"send to world rank {dest} failed: {exc}"
                ) from exc
        with self._stats_lock:
            self._wire_sent += total

    def _send_rest(self, sock: socket.socket, parts: list, sent: int) -> None:
        """Finish a vectored send the socket took *sent* bytes of,
        resuming with zero-copy memoryview slices; while the socket takes
        no more, :meth:`_await_writable`."""
        views = [memoryview(p) for p in parts if len(p)]
        while True:
            while sent:
                head = views[0].nbytes
                if sent >= head:
                    sent -= head
                    del views[0]
                else:
                    views[0] = views[0].cast("B")[sent:]
                    sent = 0
            if not views:
                return
            try:
                sent = sock.sendmsg(views)
            except BlockingIOError:
                self._await_writable(sock)

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
            self._watch(sock, select.POLLOUT, _WRITABLE)
            try:
                self._pump(None)
            finally:
                self._unwatch(sock)
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

    def wire_bytes(self) -> tuple[int, int]:
        """``(sent, received)`` bytes this endpoint pushed onto and pulled
        off its connections (and rings), framing and control frames
        included; a send to its own rank touches no wire."""
        return self._wire_sent, self._wire_received

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
            gather = self._gather
            if (gather is not None and gather(timeout != 0)) or self._backlog:
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
            self._watch(sock, select.POLLIN, _EXTERNAL)
            self._external_ready = False
        try:
            while not self._external_ready and not self._closed:
                self.progress(None)
        finally:
            with self._rx_lock:
                if not self._closed:
                    self._unwatch(sock)

    def _pump(self, timeout: Optional[float]) -> None:
        """One poll: accept, read every readable connection into its
        decoder — again while whole chunks come back, so a large frame
        costs one poll, not one a chunk — and backlog the frames it
        completes (a connection that ended is closed and backlogged as
        such); note what else fired.  Dispatches nothing."""
        fds = self._fds
        backlog = self._backlog
        for fd, _ in self._poll.poll(None if timeout is None else math.ceil(timeout * 1000)):
            what = fds.get(fd)
            if type(what) is _Inbound:
                sock = what.sock
                end = None
                while True:
                    try:
                        data = sock.recv(_RECV_BYTES)
                    except BlockingIOError:
                        break
                    except OSError:
                        data = b""
                    if not data:
                        if what.decoder.partial:
                            try:
                                what.decoder.finish()
                            except TransportError as exc:
                                end = exc
                        self._close_inbound(what, end)
                        break
                    self._wire_received += len(data)
                    try:
                        for frame in what.decoder.feed(data):
                            backlog.append((what, frame))
                    except TransportError as exc:  # a corrupt length prefix
                        self._close_inbound(what, exc)
                        break
                    if len(data) < _RECV_BYTES:
                        break
            elif what is _ACCEPT:
                self._accept()
            elif what is _WAKE:
                try:
                    while self._wake_r.recv(4096):
                        pass
                except OSError:
                    pass
            elif what is _EXTERNAL:
                self._external_ready = True

    def _close_inbound(self, inbound: _Inbound, end: Optional[TransportError]) -> None:
        self._unwatch(inbound.sock)
        inbound.sock.close()
        self._backlog.append((inbound, end))

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            conn.setblocking(False)
            self._watch(conn, select.POLLIN, _Inbound(conn))

    def _dispatch_backlog(self) -> None:
        """Decode and dispatch every backlogged frame, in arrival order
        — the one place inbound frames are decoded: a message frame
        (:func:`decode_envelope`) goes to the mailbox, a control frame
        to :meth:`_dispatch`.  A dispatch that sends (an ack) and has to
        wait reads more into the backlog, which this loop then
        dispatches too."""
        backlog = self._backlog
        while backlog:
            inbound, item = backlog.popleft()
            if item is None or isinstance(item, TransportError):
                if item is not None:
                    self.on_error(item)
                self._conn_closed(inbound.origin)
                continue
            try:
                if item[0] == _MSG_MARK:
                    env, sync_id, origin = decode_envelope(item)
                    if inbound is not None:
                        inbound.origin = origin
                    if sync_id:
                        env.sync_event = _SyncAck(self, origin, sync_id)
                    self.deliver_local(env)
                    continue
                fields = pickle.loads(item)
                if inbound is not None:
                    origin = self._frame_origin(fields)
                    if origin >= 0:
                        inbound.origin = origin
                self._dispatch(fields)
            except TransportError as exc:
                self.on_error(exc)

    def _frame_origin(self, fields: tuple) -> int:
        """World rank that sent this control frame, or -1 if it doesn't
        say."""
        return -1

    def _conn_closed(self, origin: int) -> None:
        """An inbound connection from world rank *origin* (or -1 if it
        never identified itself) ended while we are still open.

        On the process backend that means the peer's process is gone
        (children only close after the parent's shutdown broadcast,
        which only happens after every result arrived), so surface it
        through ``on_peer_lost`` — receives posted against the dead
        rank then raise instead of blocking forever."""
        if origin < 0 or self._closed:
            return
        # No "already in _dead_peers" shortcut: a failed *send* to the
        # peer (say, a page release racing its exit) marks it dead
        # without telling anyone, and this EOF is then the one
        # notification the world gets.  ``on_peer_lost`` is idempotent.
        self._dead_peers.add(origin)
        self.on_peer_lost(origin)

    def _dispatch(self, fields: tuple) -> None:
        """Act on one control frame."""
        tag = fields[0]
        if tag == "ack":
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
