"""Shared-memory transport: ring buffers + zero-copy Blob pages.

MPICH-G2 picks the fastest substrate per peer pair; this module is the
fast substrate for *same-node* pairs of the process backend.  Each rank
owns one shared-memory segment (a plain file in ``/dev/shm``, mapped
with :mod:`mmap`) containing:

* one inbound SPSC **ring buffer** per potential sender — senders write
  framed envelopes directly into the receiver's segment;
* a **page pool** for the rank's outbound large payloads — a ``Blob``
  is written once into the owner's pool and every same-node receiver
  maps it zero-copy (read-only view; the copy happens only on
  ``Blob.decode``, i.e. copy-on-read);
* a **doorbell** protocol: a receiver with empty rings blocks in its
  progress loop's selector (:meth:`SocketTransport.progress
  <repro.mpi.transport.SocketTransport.progress>`, on the rank's own
  thread) with its ``sleeping`` flag set; a sender that publishes a
  frame and observes the flag sends one tiny ``kick`` control frame over
  the socket, which ends the select — and the loop, which reads the
  rings before every select anyway, drains them and delivers into the
  mailbox.  Because the flag is cleared by the first kicker, a burst of
  small frames coalesces into a single kick (batching).

Memory-ordering notes (this is the subtle part): ring publication uses
monotonic u64 head/tail counters — the writer publishes ``tail`` only
after the record bytes are in place, the reader publishes ``head`` only
after copying the record out.  The sleeping-flag handshake is a Dekker
pattern (writer: publish tail, *fence*, read flag; reader: write flag,
*fence*, re-check tails), where the fence is :func:`_membarrier` — an
acquire/release of an uncontended lock, which compiles to a full
barrier on every platform CPython runs on.  Each ring record carries a
check word derived from its position counter, so a torn or misaligned
write is detected as corruption instead of being decoded as garbage.

Segments are plain ``O_CREAT|O_EXCL`` files (not
:mod:`multiprocessing.shared_memory`, whose resource tracker unlinks
attached segments from under sibling processes).  Files are sparse:
untouched ring/pool pages cost nothing, so the 64 MiB pool is cheap.
The owner unlinks its file on close; the launcher additionally sweeps
``<prefix>-r*`` in :meth:`~repro.mpi.procbackend._Rendezvous.sweep` so a
crashed child can never leak a segment.
"""

from __future__ import annotations

import bisect
import mmap
import os
import pickle
import struct
import tempfile
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import TransportError
from repro.mpi.corebudget import cores_per_rank
from repro.mpi.mailbox import Envelope
from repro.mpi.serialization import Blob
from repro.mpi.topology import Topology
from repro.mpi.transport import (
    _PICKLE,
    _RAW_ARRAY,
    WIRE_PICKLE_PROTOCOL,
    SocketTransport,
    _SyncAck,
    array_from_wire,
    array_wire,
    encode_envelope,
)

__all__ = [
    "ShmSegment",
    "ShmRing",
    "PagePool",
    "ShmTransport",
    "ShmStats",
    "segment_dir",
    "segment_path",
    "list_segments",
    "sweep_segments",
]

_MAGIC = b"REPROSM1"
_HDR = 4096  # segment header + ring directory
_DIR_OFF = 64
_DIR_ENT = 16
_RING_CTRL = 128  # head @ +0, tail @ +64 (separate cache lines)
_PAGE = 4096

_REC = struct.Struct("<II")  # record header: payload length, check word
_WRAP = 0xFFFFFFFF  # length marker: rest of ring is padding, wrap to 0

_U64 = struct.Struct("<Q")

#: Capacity of each per-peer-pair ring.  Frames larger than half the
#: ring are rejected (large payloads travel via the page pool instead).
_RING_BYTES = 1 << 20
#: Capacity of each rank's page pool (the backing file is sparse).
_POOL_BYTES = 1 << 26
#: Payload size from which a blob is written to the page pool and passed
#: by reference instead of inline in the ring frame.
_INLINE_MAX = 1 << 15

_fence_lock = threading.Lock()


def _membarrier() -> None:
    """Full memory fence (acquire/release of an uncontended lock).

    CPython's lock acquire is an atomic RMW — a LOCK-prefixed
    instruction on x86, an acquire/release pair elsewhere — which
    orders the store-before / load-after pairs the sleeping-flag
    doorbell handshake depends on.
    """
    with _fence_lock:
        pass


def _resolve_spin_us(nprocs: int) -> int:
    """How long (microseconds) a rank's ring reader keeps polling for
    new frames after draining before re-arming its doorbell and parking.

    In steady-state exchange the peer's next frame lands inside the
    window, so neither side pays the socket doorbell round trip: 200µs
    when every rank can have its own core
    (:func:`~repro.mpi.corebudget.cores_per_rank`, the number that also
    sizes a rank's compute threads).  When ranks oversubscribe the host,
    a spinning reader steals the very cycles the sender needs to produce
    the frame it is waiting for — there, parking on the doorbell
    immediately is strictly faster (measured: 4-rank allreduce on 1 CPU
    drops ~33% with spin 0), so the window is 0.
    """
    return 200 if cores_per_rank(nprocs) else 0


def segment_dir() -> str:
    """Directory holding shm segment files (``/dev/shm`` when present,
    the tempdir otherwise — still correct, just not guaranteed RAM)."""
    if os.path.isdir("/dev/shm"):
        return "/dev/shm"
    return tempfile.gettempdir()


def segment_path(prefix: str, rank: int, directory: Optional[str] = None) -> str:
    """Path of *rank*'s segment file under *prefix*."""
    return os.path.join(directory or segment_dir(), f"{prefix}-r{rank}")


def list_segments(prefix: str, directory: Optional[str] = None) -> List[str]:
    """Existing segment files of a job (leak-check helper for tests)."""
    d = directory or segment_dir()
    try:
        names = os.listdir(d)
    except OSError:
        return []
    return sorted(
        os.path.join(d, n) for n in names if n.startswith(f"{prefix}-r")
    )


def sweep_segments(
    prefix: str,
    directory: Optional[str] = None,
    ranks: Optional[List[int]] = None,
) -> List[str]:
    """Unlink leftover segments of a job; returns what was removed.

    Run by the launcher during rendezvous cleanup so segments cannot
    outlive the job even when a child died before unlinking its own.
    With *ranks*, only those ranks' segments are removed.
    """
    if ranks is not None:
        paths = [
            segment_path(prefix, r, directory) for r in sorted(set(ranks))
        ]
    else:
        paths = list_segments(prefix, directory)
    removed = []
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(path)
    return removed


# ---------------------------------------------------------------------------
# Segment: header + per-sender rings + page pool, in one mapped file
# ---------------------------------------------------------------------------


class ShmSegment:
    """One rank's shared-memory segment.

    Layout: 4 KiB header (magic, geometry, ``sleeping`` doorbell flag,
    ring directory), then one inbound ring per sender rank, then the
    owner's page pool.  The creator writes the magic **last** (behind a
    fence), so an attacher that sees the magic sees a fully initialised
    header; :meth:`attach` spins on that with a timeout, which absorbs
    the bootstrap race where a fast peer sends before a slow peer has
    created its segment.
    """

    def __init__(
        self,
        path: str,
        fd: int,
        mm: mmap.mmap,
        owner: int,
        nprocs: int,
        ring_bytes: int,
        pool_off: int,
        pool_size: int,
    ):
        self.path = path
        self._fd = fd
        self.mm = mm
        self.owner = owner
        self.nprocs = nprocs
        self.ring_bytes = ring_bytes
        self.pool_off = pool_off
        self.pool_size = pool_size
        self._closed = False

    @classmethod
    def create(
        cls,
        prefix: str,
        owner: int,
        nprocs: int,
        ring_bytes: int,
        pool_bytes: int,
        directory: Optional[str] = None,
    ) -> "ShmSegment":
        if _DIR_OFF + _DIR_ENT * nprocs > _HDR:
            raise TransportError(
                f"shm segment supports at most "
                f"{(_HDR - _DIR_OFF) // _DIR_ENT} ranks, got {nprocs}"
            )
        path = segment_path(prefix, owner, directory)
        size = _HDR + nprocs * (_RING_CTRL + ring_bytes) + pool_bytes
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mm = mmap.mmap(fd, size)
        except OSError:
            os.close(fd)
            os.unlink(path)
            raise
        pool_off = _HDR + nprocs * (_RING_CTRL + ring_bytes)
        struct.pack_into("<II", mm, 8, nprocs, owner)
        _U64.pack_into(mm, 16, 1)  # owner starts parked: first frame kicks
        struct.pack_into("<QQQ", mm, 24, pool_off, pool_bytes, ring_bytes)
        for r in range(nprocs):
            _U64.pack_into(
                mm,
                _DIR_OFF + _DIR_ENT * r,
                _HDR + r * (_RING_CTRL + ring_bytes),
            )
        _membarrier()
        mm[0:8] = _MAGIC  # header complete; attachers may now proceed
        return cls(path, fd, mm, owner, nprocs, ring_bytes, pool_off, pool_bytes)

    @classmethod
    def attach(
        cls,
        prefix: str,
        owner: int,
        directory: Optional[str] = None,
        timeout: float = 30.0,
    ) -> "ShmSegment":
        """Map a peer's segment, waiting out its creation if need be."""
        path = segment_path(prefix, owner, directory)
        deadline = time.monotonic() + timeout
        delay = 0.002
        while True:
            fd = -1
            try:
                fd = os.open(path, os.O_RDWR)
                size = os.fstat(fd).st_size
                if size > _HDR:
                    mm = mmap.mmap(fd, size)
                    if mm[0:8] == _MAGIC:
                        nprocs, own = struct.unpack_from("<II", mm, 8)
                        pool_off, pool_size, ring_bytes = struct.unpack_from(
                            "<QQQ", mm, 24
                        )
                        return cls(
                            path, fd, mm, own, nprocs,
                            ring_bytes, pool_off, pool_size,
                        )
                    mm.close()
            except OSError:
                pass
            if fd >= 0:
                os.close(fd)
            if time.monotonic() > deadline:
                raise TransportError(
                    f"timed out attaching shm segment of rank {owner} "
                    f"({path})"
                )
            time.sleep(delay)
            delay = min(delay * 2, 0.05)

    def ring_off(self, sender: int) -> int:
        """Offset of the inbound ring written by world rank *sender*."""
        return _U64.unpack_from(self.mm, _DIR_OFF + _DIR_ENT * sender)[0]

    # -- doorbell flag ------------------------------------------------------

    def sleeping(self) -> bool:
        """True when the owner has parked and wants a doorbell kick."""
        return _U64.unpack_from(self.mm, 16)[0] != 0

    def set_sleeping(self, value: bool) -> None:
        """Publish the owner's parked/awake state (the doorbell flag)."""
        _U64.pack_into(self.mm, 16, 1 if value else 0)

    # -- lifecycle ----------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Unmap the segment (and unlink its file when *unlink*)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.mm.close()
        except BufferError:
            # Received blobs still export buffers into this mapping;
            # leave it mapped — process exit reclaims it, and unlinking
            # the file below is independent of the mapping.
            pass
        try:
            os.close(self._fd)
        except OSError:  # pragma: no cover - defensive
            pass
        if unlink:
            try:
                os.unlink(self.path)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# SPSC ring buffer over a segment region
# ---------------------------------------------------------------------------


class ShmRing:
    """Single-producer single-consumer byte ring over mapped memory.

    Positions are *monotonic* u64 counters (``head`` written only by the
    reader, ``tail`` only by the writer); the byte offset is the counter
    modulo capacity, so empty is ``head == tail`` and full needs no
    wasted slot.  A record is ``[u32 len][u32 check]payload``, padded to
    8 bytes; ``check`` is the record's start counter truncated to 32
    bits, so a reader positioned at a record that doesn't carry the
    expected check word knows the ring is corrupt (torn write, stray
    memory clobber) and raises instead of decoding garbage.  Records
    never straddle the end: a writer without room emits a ``_WRAP``
    marker (or, with less than a header of room, relies on the implicit
    skip both sides compute identically).

    Each side also keeps a *shadow* of the one counter it owns (the
    writer shadows ``tail``, the reader ``head``).  Counters are
    monotonic and single-writer, so the shadow is always authoritative;
    if the mapped word ever disagrees — observed in practice as a lost
    store when the kernel migrates a shared page under a concurrent
    writer — the owner re-asserts the shadow value and continues
    (``heals`` counts these).  A reader that sees ``tail < head``
    treats the ring as empty rather than corrupt: the writer's tail
    store was lost and is re-asserted by its next write.
    """

    __slots__ = ("_mm", "_base", "_data", "cap", "_shadow_tail",
                 "_shadow_head", "heals")

    def __init__(self, mm: mmap.mmap, base: int, cap: int):
        self._mm = mm
        self._base = base
        self._data = base + _RING_CTRL
        self.cap = cap
        self._shadow_tail: Optional[int] = None
        self._shadow_head: Optional[int] = None
        self.heals = 0

    # head/tail live on separate cache lines of the control area.

    def _head(self) -> int:
        return _U64.unpack_from(self._mm, self._base)[0]

    def _set_head(self, v: int) -> None:
        self._shadow_head = v
        _U64.pack_into(self._mm, self._base, v)

    def _tail(self) -> int:
        return _U64.unpack_from(self._mm, self._base + 64)[0]

    def _set_tail(self, v: int) -> None:
        self._shadow_tail = v
        _U64.pack_into(self._mm, self._base + 64, v)

    @property
    def max_frame(self) -> int:
        """Largest payload accepted (half the ring, minus the header)."""
        return self.cap // 2 - _REC.size

    def readable(self) -> bool:
        """True when at least one record is waiting (head != tail)."""
        return self._head() != self._tail()

    def try_write(self, *parts) -> bool:
        """Append one record whose payload is *parts* (byte buffers)
        back to back; False when the ring lacks space (caller backs off
        — the reader frees space by consuming)."""
        n = 0
        for part in parts:
            n += len(part)
        if n > self.max_frame:
            raise TransportError(
                f"shm ring frame of {n} bytes exceeds ring capacity "
                f"budget ({self.max_frame})"
            )
        rec = _REC.size + ((n + 7) & ~7)
        tail = self._tail()
        if self._shadow_tail is None:
            self._shadow_tail = tail
        elif tail != self._shadow_tail:
            # Our own store went missing from the mapping (kernel page
            # migration under a racing writer) — the shadow is the
            # truth; re-assert it before computing anything from tail.
            tail = self._shadow_tail
            self._set_tail(tail)
            self.heals += 1
        head = self._head()  # stale reads only under-estimate free space
        if head > tail:
            # the reader's head can never pass our tail: its mapping
            # still shows a healed-away value — treat as no space and
            # let the reader's next pass re-assert head.
            return False
        off = tail - (tail // self.cap) * self.cap
        room = self.cap - off
        if room >= rec:
            skip, start = 0, off
        else:
            skip, start = room, 0
        if self.cap - (tail - head) < skip + rec:
            return False
        data = self._data
        if skip and room >= _REC.size:
            _REC.pack_into(self._mm, data + off, _WRAP, tail & 0xFFFFFFFF)
        # room < header size needs no marker: both sides skip implicitly.
        pos = data + start + _REC.size
        for part in parts:
            end = pos + len(part)
            self._mm[pos:end] = part
            pos = end
        _REC.pack_into(self._mm, data + start, n, (tail + skip) & 0xFFFFFFFF)
        _membarrier()  # record bytes must be visible before the publish
        self._set_tail(tail + skip + rec)
        return True

    def try_read(self) -> Optional[bytes]:
        """Pop one record (copied out), or ``None`` when empty.

        Raises :class:`TransportError` on a check-word mismatch — the
        torn-write / corruption detector.
        """
        head = self._head()
        if self._shadow_head is None:
            self._shadow_head = head
        elif head != self._shadow_head:
            # our head store was lost from the mapping — re-assert it
            head = self._shadow_head
            self._set_head(head)
            self.heals += 1
        start = head
        tail = self._tail()
        _membarrier()  # tail read before record bytes (load ordering)
        if tail < head:
            # the writer's tail store was lost; it re-asserts the true
            # value on its next write — nothing readable *now*.
            return None
        while True:
            if head == tail:
                if head != start:
                    self._set_head(head)
                return None
            off = head - (head // self.cap) * self.cap
            room = self.cap - off
            if room < _REC.size:
                head += room  # implicit skip, mirrored from the writer
                continue
            n, check = _REC.unpack_from(self._mm, self._data + off)
            if n == _WRAP:
                if check != head & 0xFFFFFFFF:
                    raise TransportError(
                        f"shm ring corruption: wrap marker check "
                        f"{check:#x} != position {head & 0xFFFFFFFF:#x}"
                    )
                head += room
                continue
            if check != head & 0xFFFFFFFF or n > self.max_frame:
                window = bytes(
                    self._mm[self._data + off : self._data + off + 32]
                ).hex()
                raise TransportError(
                    f"shm ring corruption at position {head}: "
                    f"len={n} check={check:#x} "
                    f"expected check {head & 0xFFFFFFFF:#x} "
                    f"(tail={self._tail()} cap={self.cap} base={self._base} "
                    f"bytes@head={window})"
                )
            p = self._data + off + _REC.size
            payload = bytes(self._mm[p : p + n])
            head += _REC.size + ((n + 7) & ~7)
            self._set_head(head)
            return payload


# ---------------------------------------------------------------------------
# Page pool: refcounted large-payload pages in the owner's segment
# ---------------------------------------------------------------------------


class PagePool:
    """First-fit allocator over the owner's pool region.

    All metadata (free list, refcounts) lives in the *owner's process
    memory* — peers never allocate or free directly, they send ``pfree``
    control frames back to the owner, so no cross-process atomics are
    needed.  Offsets are pool-relative and 4 KiB aligned.
    """

    def __init__(self, mm: mmap.mmap, base: int, size: int):
        self._mm = mm
        self._base = base
        self.size = size
        self._lock = threading.Lock()
        self._free: List[tuple] = [(0, size)]  # (off, len), sorted by off
        self._refs: Dict[int, list] = {}  # off -> [refcount, reserved]

    def alloc(self, nbytes: int) -> Optional[int]:
        """Reserve a page run for *nbytes*; returns its offset with one
        reference held, or ``None`` when the pool is exhausted."""
        need = max((nbytes + _PAGE - 1) & ~(_PAGE - 1), _PAGE)
        with self._lock:
            for i, (off, ln) in enumerate(self._free):
                if ln >= need:
                    if ln == need:
                        del self._free[i]
                    else:
                        self._free[i] = (off + need, ln - need)
                    self._refs[off] = [1, need]
                    return off
        return None

    def write(self, off: int, data) -> None:
        """Copy *data* into the allocated run at pool offset *off*."""
        p = self._base + off
        self._mm[p : p + len(data)] = data

    def add_ref(self, off: int) -> None:
        """Take one extra reference on the run at *off* (a receiver's,
        or fan-out reuse)."""
        with self._lock:
            self._refs[off][0] += 1

    def release(self, off: int) -> None:
        """Drop one reference; frees (and coalesces) the run at zero."""
        with self._lock:
            self._release_locked(off)

    def _release_locked(self, off: int) -> None:
        ent = self._refs.get(off)
        if ent is None:
            return
        ent[0] -= 1
        if ent[0] > 0:
            return
        del self._refs[off]
        ln = ent[1]
        i = bisect.bisect_left(self._free, (off, 0))
        # merge with the successor run, then the predecessor
        if i < len(self._free) and self._free[i][0] == off + ln:
            ln += self._free[i][1]
            del self._free[i]
        if i > 0 and self._free[i - 1][0] + self._free[i - 1][1] == off:
            prev_off, prev_ln = self._free[i - 1]
            self._free[i - 1] = (prev_off, prev_ln + ln)
        else:
            self._free.insert(i, (off, ln))

    @property
    def pages_in_use(self) -> int:
        with self._lock:
            return len(self._refs)

    @property
    def bytes_free(self) -> int:
        with self._lock:
            return sum(ln for _, ln in self._free)


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


@dataclass
class ShmStats:
    """Shared-memory-path counters of one :class:`ShmTransport`."""

    ring_frames_sent: int = 0
    ring_frames_received: int = 0
    ring_bytes_sent: int = 0
    ring_bytes_received: int = 0
    pages_published: int = 0
    pages_mapped: int = 0
    page_bytes_mapped: int = 0
    copies_avoided: int = 0
    kicks_sent: int = 0
    kicks_received: int = 0
    #: counter stores re-asserted after a mapped word diverged from its
    #: owner's shadow (lost store under kernel page migration)
    ring_heals: int = 0


class ShmTransport(SocketTransport):
    """Per-pair protocol selection: shm rings same-node, sockets across.

    Subclasses :class:`SocketTransport` so the bootstrap handshake,
    cross-node sends, abort broadcast, sync-ack machinery and the
    progress loop are inherited unchanged; only same-node envelope
    traffic is rerouted through the rings and the page pool.  The loop
    reads the rings into its backlog before it consults the selector
    (:meth:`_gather`), so ring frames are decoded and dispatched where
    socket frames are; doorbell kicks and cross-node frames ride the
    inherited sockets, and a kick is what ends a select the loop blocked
    in with its doorbell armed.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        listener,
        peers: dict,
        *,
        prefix: str,
        topology: Topology,
        directory: Optional[str] = None,
        ring_bytes: int = _RING_BYTES,
    ):
        super().__init__(rank, nprocs, listener, peers)
        self.kind = "shm"
        self._topology = topology
        self._prefix = prefix
        self._dir = directory or segment_dir()
        #: Poll window the progress engine grants a blocked rank before
        #: parking it on the doorbell (seconds).
        self.progress_poll_s = _resolve_spin_us(nprocs) / 1e6
        self._seg = ShmSegment.create(prefix, rank, nprocs, ring_bytes, _POOL_BYTES, self._dir)
        self._pool = PagePool(self._seg.mm, self._seg.pool_off, self._seg.pool_size)
        #: Inbound rings in *our* segment, one per same-node sender.
        self._rings_in = {
            r: ShmRing(self._seg.mm, self._seg.ring_off(r), self._seg.ring_bytes)
            for r in range(nprocs)
            if r != rank and self._topology.same_node(rank, r)
        }
        self._peer_segs: Dict[int, ShmSegment] = {}
        self._peer_rings: Dict[int, ShmRing] = {}
        self._ring_locks: Dict[int, threading.Lock] = {}
        self._attach_lock = threading.Lock()
        # blob -> pool offset of its already-published page (fan-out dedup)
        self._page_cache = weakref.WeakKeyDictionary()
        self._cache_lock = threading.Lock()
        # (owner_rank, off) release requests; finalizers may only
        # *append* (atomic, lock-free) — flushing happens in sends and in
        # the progress loop, never in GC context, so no reentrant-lock
        # deadlock.
        self._release_q: deque = deque()
        self._shm = ShmStats()  # under the inherited _stats_lock

    # -- routing ------------------------------------------------------------

    def _use_shm(self, dest: int) -> bool:
        return (
            dest != self.rank
            and dest in self._rings_in  # same-node by construction
        )

    def send_envelope(self, dest: int, env: Envelope) -> None:
        if dest == self.rank:
            self.deliver_local(env)
            return
        self._flush_releases()
        if not self._use_shm(dest):
            super().send_envelope(dest, env)
            return
        sync_id = 0 if env.sync_event is None else self._register_sync(env)
        try:
            self._ring_send(dest, self._encode_shm(env, sync_id, dest))
        except TransportError:
            self._unregister_sync(sync_id)
            raise

    def send_control(self, dest: int, fields: tuple) -> None:
        # Acks and aborts to same-node peers take the ring too (lower
        # latency and they ride the same FIFO); kicks must NOT — they
        # are the wakeup mechanism itself, so _kick calls the socket
        # path directly.
        if self._use_shm(dest) and not self._closed:
            self._ring_send(dest, (pickle.dumps(fields, protocol=WIRE_PICKLE_PROTOCOL),))
            return
        super().send_control(dest, fields)

    # -- shm send path ------------------------------------------------------

    def _encode_shm(self, env: Envelope, sync_id: int, dest: int) -> tuple:
        """A ring frame's parts: the message frame of a small payload,
        or a ``msgp`` control frame naming the pool page of a large one."""
        if env.payload.nbytes < _INLINE_MAX:
            return encode_envelope(env, sync_id, self.rank)
        return (pickle.dumps(
            (
                "msgp",
                env.context,
                env.source,
                env.tag,
                env.kind,
                env.count,
                env.op,
                sync_id,
                self.rank,
                self._publish_blob(env.payload, dest),
            ),
            protocol=WIRE_PICKLE_PROTOCOL,
        ),)

    def _publish_blob(self, blob: Blob, dest: int) -> tuple:
        """Write *blob* into our pool (once — fan-outs reuse the page)
        and return its wire descriptor with one receiver hold taken: the
        payload kind and meta of the message codec, the page, the size."""
        if blob.kind == "array":
            payload_kind, meta, raw = array_wire(blob.data)
        else:
            payload_kind, meta, raw = _PICKLE, b"", blob.data
        n = len(raw)
        with self._cache_lock:
            off = self._page_cache.get(blob)
        if off is None:
            off = self._alloc_blocking(n)
            self._pool.write(off, raw)
            with self._cache_lock:
                self._page_cache[blob] = off
            # the pool ref taken by alloc() is the *sender's* hold,
            # dropped when the blob itself is garbage collected
            weakref.finalize(blob, self._release_q.append, (self.rank, off))
            with self._stats_lock:
                self._shm.pages_published += 1
        else:
            with self._stats_lock:
                self._shm.copies_avoided += 1
        # the receiver's hold, dropped via pfree
        self._pool.add_ref(off)
        return (payload_kind, off, n, meta)

    def _alloc_blocking(self, nbytes: int, timeout: float = 60.0) -> int:
        if nbytes > self._pool.size:
            raise TransportError(
                f"payload of {nbytes} bytes exceeds the shm page pool "
                f"({self._pool.size} bytes)"
            )
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while True:
            off = self._pool.alloc(nbytes)
            if off is not None:
                return off
            # Space frees when receivers' pfree frames reach our rings
            # and when our own dead-blob releases flush: one turn of the
            # loop drives both (no frame is half-written here, so it may
            # dispatch).
            self.progress(0)
            off = self._pool.alloc(nbytes)
            if off is not None:
                return off
            if time.monotonic() > deadline:
                raise TransportError(
                    f"shm page pool exhausted for {timeout:.0f}s "
                    f"(need {nbytes} bytes)"
                )
            time.sleep(delay)
            delay = min(delay * 2, 0.02)

    def _ring_send(self, dest: int, parts: tuple) -> None:
        if dest not in self._peers:
            raise TransportError(f"no address for world rank {dest}")
        if dest in self._dead_peers:
            raise TransportError(f"world rank {dest} is dead")
        ring = self._peer_ring(dest)
        lock = self._ring_locks.setdefault(dest, threading.Lock())
        deadline = None
        next_force = 0.0
        delay = 0.0002
        with lock:
            while not ring.try_write(*parts):
                # Full ring: the receiver frees space by draining, so
                # make sure it is awake, then back off.  Every 50 ms of
                # sustained fullness the kick is *forced* down the
                # socket regardless of the doorbell flag — that both
                # self-heals a lost-wakeup race and probes liveness (a
                # failed kick marks the peer dead, breaking this loop
                # instead of spinning against a corpse's ring).
                now = time.monotonic()
                self._kick(dest, force=now >= next_force)
                if now >= next_force:
                    next_force = now + 0.05
                if deadline is None:
                    deadline = now + 60.0
                elif now > deadline:
                    raise TransportError(
                        f"shm ring to world rank {dest} stayed full for 60s"
                    )
                if dest in self._dead_peers:
                    raise TransportError(f"world rank {dest} is dead")
                self._read_ahead()
                time.sleep(delay)
                delay = min(delay * 2, 0.005)
        n = 0
        for part in parts:
            n += len(part)
        with self._stats_lock:
            self._shm.ring_frames_sent += 1
            self._shm.ring_bytes_sent += n
            self._wire_sent += n
        self._kick(dest)

    def _kick(self, dest: int, force: bool = False) -> None:
        """Doorbell: wake *dest* if (and only if) it is parked.

        Clearing the flag before sending makes the first kicker
        responsible for the wakeup and lets every other concurrent
        sender skip theirs — the frame-batching half of the design.
        With *force*, the socket kick goes out even when the flag says
        awake (used as a liveness probe from the backpressure loop).
        """
        seg = self._peer_segs.get(dest)
        if seg is None:  # pragma: no cover - ring exists, so seg does
            return
        _membarrier()  # our tail publish must precede the flag read
        if not seg.sleeping():
            if not force:
                return
        else:
            seg.set_sleeping(False)
        try:
            SocketTransport.send_control(self, dest, ("kick", self.rank))
            with self._stats_lock:
                self._shm.kicks_sent += 1
        except TransportError:
            pass  # peer unreachable: its death surfaces elsewhere

    def _peer_ring(self, dest: int) -> ShmRing:
        ring = self._peer_rings.get(dest)
        if ring is None:
            seg = self._attach_peer(dest)
            ring = ShmRing(seg.mm, seg.ring_off(self.rank), seg.ring_bytes)
            self._peer_rings[dest] = ring
            # Dial the doorbell connection with the first frame, needed
            # or not: its EOF is the only way *dest* learns of our death,
            # and a peer that was awake for every frame we ever sent
            # would otherwise never have been connected to.
            self._kick(dest, force=True)
        return ring

    def _attach_peer(self, peer: int) -> ShmSegment:
        seg = self._peer_segs.get(peer)
        if seg is not None:
            return seg
        with self._attach_lock:
            seg = self._peer_segs.get(peer)
            if seg is None:
                try:
                    seg = ShmSegment.attach(self._prefix, peer, self._dir)
                except TransportError:
                    # segment never appeared (or vanished): the peer is
                    # gone before we ever spoke to it
                    self._dead_peers.add(peer)
                    raise
                if seg.nprocs != self.nprocs or seg.owner != peer:
                    seg.close()
                    raise TransportError(
                        f"shm segment of rank {peer} has mismatched "
                        f"geometry (owner={seg.owner} nprocs={seg.nprocs})"
                    )
                self._peer_segs[peer] = seg
        return seg

    # -- shm receive path ---------------------------------------------------

    def _read_ahead(self) -> None:
        """Read what peers send us into the backlog, dispatching nothing
        — what a send waiting for ring space does meanwhile: the peer
        whose ring is full may be waiting for space in ours.  Left to
        another thread that is turning the loop."""
        if not self._rx_lock.acquire(blocking=False):
            return
        try:
            if not self._closed:
                self._drain(rearm=False)
                self._pump(0)
        finally:
            self._rx_lock.release()

    def _drain(self, rearm: bool = True) -> bool:
        """Move every frame waiting in our inbound rings into the
        backlog, which the progress loop decodes and dispatches; returns
        whether any frame was moved.

        Runs under the loop's lock: in :meth:`progress` before the
        selector is consulted and on a kick, or in a send waiting for
        ring space.  The re-arm protocol (set ``sleeping``, fence,
        re-check) pairs with the sender's publish-fence-read so a frame
        published during re-arm is either seen by the final pass here
        or triggers a fresh kick there.  With ``rearm=False`` the
        doorbell stays disarmed — the caller is about to look again (a
        poll, a waiting send), so senders can skip their kicks
        meanwhile.
        """
        if not self._rings_in or self._closed:
            return False
        seg = self._seg
        got = False
        try:
            while True:
                seg.set_sleeping(False)
                progressed = True
                while progressed:
                    progressed = False
                    for ring in self._rings_in.values():
                        while True:
                            payload = ring.try_read()
                            if payload is None:
                                break
                            progressed = got = True
                            with self._stats_lock:
                                self._shm.ring_frames_received += 1
                                self._shm.ring_bytes_received += len(payload)
                            self._wire_received += len(payload)
                            self._backlog.append((None, payload))
                if not rearm:
                    return got
                seg.set_sleeping(True)
                _membarrier()  # re-arm must precede the final check
                if not any(r.readable() for r in self._rings_in.values()):
                    return got
        except TransportError as exc:
            self._debug_dump(exc)
            self.on_error(exc)
            return got

    def _debug_dump(self, exc: Exception) -> None:
        """Write a forensic segment snapshot when REPRO_SHM_DEBUG is set
        (diagnosis aid for ring-corruption reports; no-op otherwise)."""
        path = os.environ.get("REPRO_SHM_DEBUG")
        if not path:
            return
        try:
            seg = self._seg
            with open(f"{path}.rank{self.rank}.{os.getpid()}", "w") as fh:
                fh.write(f"error: {exc}\nsegment: {seg.path}\n")
                fh.write(f"stat: {os.stat(seg.path)}\n")
                fh.write(f"fstat: {os.fstat(seg._fd)}\n")
                fh.write(f"header: {bytes(seg.mm[:128]).hex()}\n")
                for r, ring in self._rings_in.items():
                    b = ring._base
                    fh.write(
                        f"ring[{r}] base={b} head={ring._head()} "
                        f"tail={ring._tail()}\n"
                        f"  ctrl:  {bytes(seg.mm[b : b + 128]).hex()}\n"
                        f"  data0: {bytes(seg.mm[b + 128 : b + 384]).hex()}\n"
                    )
                    h = ring._head()
                    off = h - (h // ring.cap) * ring.cap
                    p = b + 128 + (off & ~63)
                    fh.write(f"  @head({h}): {bytes(seg.mm[p : p + 256]).hex()}\n")
        except Exception:
            pass

    # -- progress-loop integration ------------------------------------------

    def _gather(self, park: bool) -> bool:
        """Before the loop consults its selector: flush page releases
        and drain the rings, re-arming the doorbell when the loop is
        about to block (*park*).  The progress engine turns the loop
        without blocking for :attr:`progress_poll_s` first, so in
        steady-state exchange a message and its reply never pay the
        socket-doorbell round trip."""
        self._flush_releases()
        return self._drain(rearm=park)

    def _dispatch(self, fields: tuple) -> None:
        tag = fields[0]
        if tag == "kick":
            with self._stats_lock:
                self._shm.kicks_received += 1
            self._drain()
        elif tag == "pfree":
            for off in fields[2]:
                self._pool.release(off)
        elif tag == "msgp":
            env, sync_id, from_rank = self._decode_page_msg(fields)
            if sync_id:
                env.sync_event = _SyncAck(self, from_rank, sync_id)
            self.deliver_local(env)
        else:
            super()._dispatch(fields)

    def _decode_page_msg(self, fields: tuple):
        """Rebuild an envelope whose payload lives in the sender's pool.

        The payload is *mapped*, not copied: a read-only view into the
        sender's segment.  A finalizer on the mapped object queues a
        ``pfree`` back to the owner when the receiver drops it — the
        refcounted-page half of the zero-copy design.  For an array the
        mapped object is the flat base every view of the payload
        collapses to, so a buffer-mode receive that keeps the opened
        array past its envelope keeps the page too; an array whose dtype
        travelled pickled is copied out, and its page released at once.
        Mutation safety
        comes from read-only views plus copy-on-read in
        :meth:`Blob.decode` (and the buffer-delivery copy out of
        :func:`~repro.mpi.serialization.buffer_array`).
        """
        (_, context, source, tag, kind, count, op,
         sync_id, from_rank, desc) = fields
        payload_kind, off, nbytes, meta = desc
        seg = self._attach_peer(from_rank)
        abs_off = seg.pool_off + off
        if payload_kind == _PICKLE:
            mapped = data = memoryview(seg.mm)[abs_off : abs_off + nbytes]
            blob = Blob("pickle", data, nbytes)
        else:
            data = array_from_wire(payload_kind, meta, seg.mm, abs_off, nbytes)
            mapped = data.base if payload_kind == _RAW_ARRAY else None
            blob = Blob("array", data, data.nbytes)
        if mapped is None:
            self._release_q.append((from_rank, off))
        else:
            weakref.finalize(mapped, self._release_q.append, (from_rank, off))
        with self._stats_lock:
            self._shm.pages_mapped += 1
            self._shm.page_bytes_mapped += nbytes
        env = Envelope(context, source, tag, blob, kind, count, op=op)
        return env, sync_id, from_rank

    def _flush_releases(self) -> None:
        """Turn queued finalizer releases into pool frees / pfree frames."""
        q = self._release_q
        if not q:
            return
        remote: Dict[int, list] = {}
        while True:
            try:
                owner, off = q.popleft()
            except IndexError:
                break
            if owner == self.rank:
                self._pool.release(off)
            else:
                remote.setdefault(owner, []).append(off)
        for owner, offs in remote.items():
            try:
                self._ring_send(
                    owner,
                    (pickle.dumps(("pfree", self.rank, offs), protocol=WIRE_PICKLE_PROTOCOL),),
                )
            except TransportError:
                pass  # owner is gone; its segment dies with it

    # -- failure detection --------------------------------------------------

    def _frame_origin(self, fields: tuple) -> int:
        t = fields[0]
        if t in ("kick", "pfree"):
            return fields[1]
        if t == "msgp":
            return fields[8]
        return super()._frame_origin(fields)

    # -- lifecycle / introspection ------------------------------------------

    def close(self) -> None:
        """Flush page releases, close sockets, unmap and unlink segments."""
        if self._closed:
            return
        try:
            self._flush_releases()
        except TransportError:  # pragma: no cover - peers already gone
            pass
        super().close()

    def _release(self) -> None:
        super()._release()
        for seg in self._peer_segs.values():
            seg.close()
        self._seg.close(unlink=True)

    def shm_stats(self) -> ShmStats:
        """Snapshot of ring/pool counters (plus live ring heal totals)."""
        with self._stats_lock:
            stats = ShmStats(**vars(self._shm))
        stats.ring_heals = sum(
            r.heals for r in self._rings_in.values()
        ) + sum(r.heals for r in self._peer_rings.values())
        return stats

    @property
    def pool(self) -> PagePool:
        """The owner-side page pool (test/bench introspection)."""
        return self._pool
