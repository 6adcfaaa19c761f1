"""Shared-memory transport unit tests: ring, pool, segment, endpoint pair.

The shm substrate's correctness rests on three invariants exercised here
at the primitive level, then end-to-end through a wired
:class:`ShmTransport` pair:

* the SPSC ring delivers frames FIFO through arbitrary wrap-arounds,
  reports full (never overwrites), and detects torn/corrupt records via
  the per-record check word instead of decoding garbage;
* the page pool hands out aligned runs, frees a run only when *every*
  reference is dropped, and coalesces freed neighbours so the pool does
  not fragment to death under steady traffic;
* a mapped zero-copy payload must never let a receiver's mutation leak
  back into shared pages (copy-on-read), and dropping the received
  object must eventually release the page (refcount protocol).

Cross-process behaviour (crash-mid-transfer, conformance) is covered in
``tests/launcher`` and the conformance suite; everything here runs
in-process for speed and determinism.
"""

from __future__ import annotations

import gc
import mmap
import threading
import time

import numpy as np
import pytest

from repro.errors import TransportError
from repro.mpi.mailbox import Envelope
from repro.mpi.progress import Completion
from repro.mpi.serialization import Blob
from repro.mpi.shm import (
    PagePool,
    ShmRing,
    ShmSegment,
    ShmTransport,
    list_segments,
    segment_path,
    sweep_segments,
)
from repro.mpi.topology import Topology
from repro.mpi.transport import make_listener

_RING_CTRL = 128  # mirrors shm._RING_CTRL: control words before data


def _ring(cap=4096):
    mm = mmap.mmap(-1, _RING_CTRL + cap)
    return ShmRing(mm, 0, cap)


# ---------------------------------------------------------------------------
# Ring: FIFO, wrap-around, backpressure, corruption detection
# ---------------------------------------------------------------------------


class TestShmRing:
    def test_fifo_roundtrip(self):
        ring = _ring()
        frames = [b"", b"a", b"hello" * 10, bytes(range(256))]
        for f in frames:
            assert ring.try_write(f)
        assert [ring.try_read() for _ in frames] == frames
        assert ring.try_read() is None
        assert not ring.readable()

    def test_wrap_around_many_times(self):
        """Frames sized to land on every alignment boundary, pushed
        through enough traffic to wrap the ring dozens of times."""
        ring = _ring(cap=4096)
        sizes = [0, 1, 7, 8, 9, 100, 1000, 2000]
        sent = 0
        for i in range(500):
            payload = bytes([i & 0xFF]) * sizes[i % len(sizes)]
            while not ring.try_write(payload):
                got = ring.try_read()
                assert got is not None
            sent += 1
            if i % 3 == 0:
                got = ring.try_read()
                if got is not None:
                    assert got == bytes([got[0]]) * len(got) if got else True
        # drain everything left; contents must match the tail of the send
        # sequence byte-for-byte (each frame is a run of one byte value)
        while (got := ring.try_read()) is not None:
            if got:
                assert got == bytes([got[0]]) * len(got)

    def test_wrap_preserves_exact_sequence(self):
        """Deterministic FIFO check across wraps: every frame read in
        order, byte-identical, through 50 ring capacities of traffic."""
        ring = _ring(cap=4096)
        import random

        rng = random.Random(7)
        pending = []
        seq = 0
        read_seq = 0
        for _ in range(2000):
            payload = seq.to_bytes(4, "little") + bytes(
                rng.getrandbits(8) for _ in range(rng.choice([0, 4, 60, 500]))
            )
            if ring.try_write(payload):
                pending.append(payload)
                seq += 1
            else:
                got = ring.try_read()
                assert got == pending[read_seq]
                read_seq += 1
        while (got := ring.try_read()) is not None:
            assert got == pending[read_seq]
            read_seq += 1
        assert read_seq == len(pending)

    def test_full_ring_reports_full_not_overwrite(self):
        ring = _ring(cap=4096)
        frame = b"x" * 1000
        written = 0
        while ring.try_write(frame):
            written += 1
        assert written >= 3  # sanity: the ring held several frames
        # still full after more attempts; stored frames intact
        assert not ring.try_write(frame)
        for _ in range(written):
            assert ring.try_read() == frame
        assert ring.try_read() is None
        # and the freed space is reusable
        assert ring.try_write(frame)

    def test_oversized_frame_rejected(self):
        ring = _ring(cap=4096)
        with pytest.raises(TransportError, match="exceeds ring capacity"):
            ring.try_write(b"x" * (ring.max_frame + 1))
        assert ring.try_write(b"x" * ring.max_frame)

    def test_torn_write_detected(self):
        """A corrupted check word (simulated torn write / stray clobber)
        must raise, not hand back garbage bytes."""
        mm = mmap.mmap(-1, _RING_CTRL + 4096)
        ring = ShmRing(mm, 0, 4096)
        assert ring.try_write(b"good frame")
        # clobber the check word of the record at position 0
        mm[_RING_CTRL + 4 : _RING_CTRL + 8] = b"\xde\xad\xbe\xef"
        with pytest.raises(TransportError, match="corruption"):
            ring.try_read()

    def test_lost_tail_store_healed_by_writer(self):
        """A tail word that regresses in the mapping (lost store under
        kernel page migration) is re-asserted from the writer's shadow
        on its next write; the reader meanwhile treats tail < head as
        empty instead of corrupt."""
        mm = mmap.mmap(-1, _RING_CTRL + 4096)
        ring = ShmRing(mm, 0, 4096)
        for i in range(3):
            assert ring.try_write(b"x" * 10)
        assert ring.try_read() == b"x" * 10
        mm[64:72] = bytes(8)  # the anomaly: tail reverts to zero
        # reader: tail(0) < head — empty, not corruption
        assert ring.try_read() is None
        # writer: next write heals tail and lands after the old records
        assert ring.try_write(b"fresh")
        assert ring.heals == 1
        assert ring.try_read() == b"x" * 10
        assert ring.try_read() == b"x" * 10
        assert ring.try_read() == b"fresh"
        assert ring.try_read() is None

    def test_lost_head_store_healed_by_reader(self):
        mm = mmap.mmap(-1, _RING_CTRL + 4096)
        ring = ShmRing(mm, 0, 4096)
        for _ in range(2):
            assert ring.try_write(b"payload")
        assert ring.try_read() == b"payload"
        mm[0:8] = bytes(8)  # head word reverts: reader's store lost
        # reader re-asserts its shadow and does not re-deliver frame 0
        assert ring.try_read() == b"payload"
        assert ring.heals == 1
        assert ring.try_read() is None

    def test_corrupt_length_detected(self):
        mm = mmap.mmap(-1, _RING_CTRL + 4096)
        ring = ShmRing(mm, 0, 4096)
        assert ring.try_write(b"frame")
        # an in-range check word but absurd length: also corruption
        mm[_RING_CTRL + 0 : _RING_CTRL + 4] = (3000).to_bytes(4, "little")
        with pytest.raises(TransportError, match="corruption"):
            ring.try_read()

    def test_interleaved_threads_spsc(self):
        """One writer thread, one reader thread — the intended topology.
        All frames arrive in order with no corruption."""
        ring = _ring(cap=8192)
        count = 3000
        errors = []

        def writer():
            for i in range(count):
                payload = i.to_bytes(4, "little") * ((i % 40) + 1)
                while not ring.try_write(payload):
                    time.sleep(0)

        def reader():
            got = 0
            while got < count:
                frame = ring.try_read()
                if frame is None:
                    time.sleep(0)
                    continue
                expect = got.to_bytes(4, "little") * ((got % 40) + 1)
                if frame != expect:
                    errors.append((got, frame[:8]))
                    return
                got += 1

        t_w = threading.Thread(target=writer)
        t_r = threading.Thread(target=reader)
        t_w.start(), t_r.start()
        t_w.join(30), t_r.join(30)
        assert not t_w.is_alive() and not t_r.is_alive()
        assert errors == []


# ---------------------------------------------------------------------------
# Page pool: alignment, refcounts, coalescing, exhaustion
# ---------------------------------------------------------------------------


class TestPagePool:
    def _pool(self, size=1 << 20):
        mm = mmap.mmap(-1, size)
        return PagePool(mm, 0, size)

    def test_alloc_aligned_and_writes_readable(self):
        pool = self._pool()
        off = pool.alloc(100)
        assert off is not None and off % 4096 == 0
        pool.write(off, b"payload bytes")
        assert pool._mm[off : off + 13] == b"payload bytes"

    def test_refcount_frees_only_at_zero(self):
        pool = self._pool(size=8192)
        off = pool.alloc(8192)  # takes the whole pool
        assert pool.alloc(1) is None
        pool.add_ref(off)  # now 2 holds
        pool.release(off)
        assert pool.alloc(1) is None, "freed with a reference outstanding"
        pool.release(off)
        assert pool.alloc(1) is not None  # last release freed the run

    def test_release_unknown_offset_is_noop(self):
        pool = self._pool()
        pool.release(12288)  # double-free / stray pfree must not corrupt
        assert pool.bytes_free == pool.size

    def test_coalescing_recovers_full_run(self):
        pool = self._pool(size=64 * 4096)
        offs = [pool.alloc(4096) for _ in range(64)]
        assert all(o is not None for o in offs)
        assert pool.alloc(1) is None
        # free in shuffled order; the free list must merge back to one run
        import random

        random.Random(3).shuffle(offs)
        for o in offs:
            pool.release(o)
        assert pool.bytes_free == pool.size
        big = pool.alloc(64 * 4096)
        assert big == 0, "free list failed to coalesce into one run"

    def test_exhaustion_returns_none(self):
        pool = self._pool(size=4096)
        assert pool.alloc(4097) is None
        assert pool.alloc(4096) is not None
        assert pool.alloc(1) is None

    def test_pages_in_use_tracks(self):
        pool = self._pool()
        a, b = pool.alloc(10), pool.alloc(10)
        assert pool.pages_in_use == 2
        pool.release(a)
        pool.release(b)
        assert pool.pages_in_use == 0


# ---------------------------------------------------------------------------
# Segment lifecycle
# ---------------------------------------------------------------------------


class TestShmSegment:
    def test_create_attach_geometry(self, tmp_path):
        d = str(tmp_path)
        seg = ShmSegment.create("t1", 0, 4, 8192, 65536, d)
        try:
            peer = ShmSegment.attach("t1", 0, d, timeout=5.0)
            assert (peer.nprocs, peer.owner) == (4, 0)
            assert peer.ring_bytes == 8192
            assert peer.pool_size == 65536
            assert peer.pool_off == seg.pool_off
            # a ring written through one mapping reads through the other
            ring_w = ShmRing(seg.mm, seg.ring_off(2), seg.ring_bytes)
            ring_r = ShmRing(peer.mm, peer.ring_off(2), peer.ring_bytes)
            assert ring_w.try_write(b"cross-mapping")
            assert ring_r.try_read() == b"cross-mapping"
            peer.close()
        finally:
            seg.close(unlink=True)
        assert list_segments("t1", d) == []

    def test_attach_missing_times_out(self, tmp_path):
        with pytest.raises(TransportError, match="timed out"):
            ShmSegment.attach("nope", 3, str(tmp_path), timeout=0.2)

    def test_attach_waits_for_magic(self, tmp_path):
        """An attacher racing segment creation spins until the magic is
        written (header-complete), instead of reading a half-built map."""
        d = str(tmp_path)

        def create_later():
            time.sleep(0.15)
            seg = ShmSegment.create("race", 1, 2, 4096, 4096, d)
            seg.close()  # keep the file; the attacher owns its own map

        t = threading.Thread(target=create_later)
        t.start()
        try:
            seg = ShmSegment.attach("race", 1, d, timeout=5.0)
            assert seg.owner == 1
            seg.close()
        finally:
            t.join()
            sweep_segments("race", d)

    def test_sweep_removes_leftovers(self, tmp_path):
        d = str(tmp_path)
        for r in range(3):
            ShmSegment.create("sweepme", r, 3, 4096, 4096, d).close()
        assert len(list_segments("sweepme", d)) == 3
        removed = sweep_segments("sweepme", d)
        assert len(removed) == 3
        assert list_segments("sweepme", d) == []

    def test_duplicate_create_rejected(self, tmp_path):
        d = str(tmp_path)
        seg = ShmSegment.create("dup", 0, 2, 4096, 4096, d)
        try:
            with pytest.raises(OSError):
                ShmSegment.create("dup", 0, 2, 4096, 4096, d)
        finally:
            seg.close(unlink=True)


# ---------------------------------------------------------------------------
# ShmTransport pair: rings + page pool end to end, in-process
# ---------------------------------------------------------------------------


def _make_shm_pair(tmp_path, nprocs=2, nodes=1, **sizes):
    """Wired ShmTransport endpoints sharing a segment directory; *sizes*
    go to the transport as they stand (``ring_bytes=``)."""
    addrs = {rank: str(tmp_path / f"ep{rank}.sock") for rank in range(nprocs)}
    listeners = [make_listener(addrs[rank]) for rank in range(nprocs)]
    topo = Topology(nprocs, nodes)
    endpoints = []
    for rank in range(nprocs):
        ep = ShmTransport(
            rank,
            nprocs,
            listeners[rank],
            addrs,
            prefix=f"pair-{tmp_path.name[-8:]}",
            topology=topo,
            directory=str(tmp_path),
            **sizes,
        )
        ep.received = []
        ep.errors = []
        ep.delivered = threading.Event()

        def deliver(env, ep=ep):
            ep.received.append(env)
            ep.delivered.set()
            if env.sync_event is not None:
                env.sync_event.set()

        ep.deliver_local = deliver
        ep.on_error = ep.errors.append
        endpoints.append(ep)
    return endpoints


@pytest.fixture
def shm_pair(tmp_path):
    pair = _make_shm_pair(tmp_path)
    yield pair
    for ep in pair:
        ep.close()
    assert list_segments("pair", str(tmp_path)) == [], "segments leaked"


def _wait(pred, *endpoints, timeout=5.0):
    """Turn each endpoint's progress loop until *pred* holds (``False``
    past *timeout*): an endpoint has no thread of its own, whoever waits
    on it turns its loop, as a process rank's blocked call does."""
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        for ep in endpoints:
            ep.progress(0.005)
    return True


class TestShmTransportPair:
    def test_small_envelope_rides_ring(self, shm_pair):
        a, b = shm_pair
        blob = Blob.encode("ring hello")
        a.send_envelope(1, Envelope(3, 0, 5, blob, "object", blob.nbytes))
        assert _wait(b.delivered.is_set, b)
        env = b.received[0]
        assert (env.context, env.source, env.tag) == (3, 0, 5)
        assert env.payload.decode() == "ring hello"
        s = a.shm_stats()
        assert s.ring_frames_sent == 1
        assert s.pages_published == 0  # small: inline, not paged

    def test_fifo_order_over_ring(self, shm_pair):
        a, b = shm_pair
        for i in range(200):
            blob = Blob.encode(i)
            a.send_envelope(1, Envelope(1, 0, i, blob, "object", blob.nbytes))
        assert _wait(lambda: len(b.received) == 200, b)
        assert [e.payload.decode() for e in b.received] == list(range(200))

    def test_sync_ack_completes_sender(self, shm_pair):
        a, b = shm_pair
        blob = Blob.encode("sync over shm")
        completion = Completion()
        env = Envelope(1, 0, 2, blob, "object", blob.nbytes, sync_event=completion)
        a.send_envelope(1, env)
        assert _wait(lambda: completion.done, b, a), "shm-path ssend ack never arrived"

    def test_large_blob_takes_page_path(self, shm_pair):
        a, b = shm_pair
        payload = list(range(20_000))  # pickles well past the inline limit
        blob = Blob.encode(payload)
        a.send_envelope(1, Envelope(1, 0, 9, blob, "object", blob.nbytes))
        assert _wait(b.delivered.is_set, b)
        assert b.received[0].payload.decode() == payload
        assert a.shm_stats().pages_published == 1
        assert b.shm_stats().pages_mapped == 1

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(5000).astype("datetime64[s]").reshape(50, 100),
            np.zeros(5000, dtype=[("a", "<i4"), ("b", "<f8")]),
        ],
        ids=["datetime", "structured"],
    )
    def test_large_array_of_any_dtype_crosses_a_page(self, shm_pair, arr):
        """A page carries an array in the message codec's terms: a
        datetime array (no buffer export) used to fail the send, and a
        structured dtype's string failed the receiving rank's decode."""
        a, b = shm_pair
        blob = Blob.encode(arr)
        a.send_envelope(1, Envelope(1, 0, 9, blob, "buffer", arr.size))
        assert _wait(lambda: b.received or b.errors, b)
        assert b.errors == []
        got = b.received[0].payload
        assert got.data.dtype == arr.dtype and got.data.shape == arr.shape
        np.testing.assert_array_equal(got.decode(), arr)
        assert a.shm_stats().pages_published == 1

    def test_large_array_zero_copy_and_isolated(self, shm_pair):
        a, b = shm_pair
        arr = np.arange(50_000, dtype=np.float64)
        blob = Blob.encode(arr)
        a.send_envelope(1, Envelope(1, 0, 9, blob, "object", blob.nbytes))
        assert _wait(b.delivered.is_set, b)
        got = b.received[0].payload.decode()
        np.testing.assert_array_equal(got, arr)
        # decode() must hand the receiver a private writable copy:
        # mutating it cannot reach the shared page
        got[:] = -1.0
        again = b.received[0].payload.decode()
        np.testing.assert_array_equal(again, arr)

    def test_fanout_dedups_page(self, tmp_path):
        """One blob sent to two peers is written to the pool once."""
        pair = _make_shm_pair(tmp_path, nprocs=3)
        try:
            a = pair[0]
            arr = np.ones(30_000)
            blob = Blob.encode(arr)
            for dest in (1, 2):
                a.send_envelope(
                    dest, Envelope(1, 0, 4, blob, "object", blob.nbytes)
                )
            assert _wait(pair[1].delivered.is_set, pair[1])
            assert _wait(pair[2].delivered.is_set, pair[2])
            s = a.shm_stats()
            assert s.pages_published == 1
            assert s.copies_avoided == 1
        finally:
            for ep in pair:
                ep.close()

    def test_page_released_after_receiver_drop(self, shm_pair):
        a, b = shm_pair
        arr = np.arange(40_000, dtype=np.float64)
        blob = Blob.encode(arr)
        a.send_envelope(1, Envelope(1, 0, 9, blob, "object", blob.nbytes))
        assert _wait(b.delivered.is_set, b)
        assert a.pool.pages_in_use >= 1
        # drop every reference: the received envelope AND the sender blob
        b.received.clear()
        del blob, arr
        gc.collect()
        # releases travel as pfree frames when traffic flushes them;
        # poke both directions until the pool drains
        def drained():
            ping = Blob.encode(0)
            b.send_envelope(0, Envelope(1, 1, 99, ping, "object", ping.nbytes))
            a.send_envelope(1, Envelope(1, 0, 99, ping, "object", ping.nbytes))
            gc.collect()
            return a.pool.pages_in_use == 0

        assert _wait(drained, a, b, timeout=10.0), "page never released"

    def test_cross_node_peers_fall_back_to_sockets(self, tmp_path):
        """nodes=2 puts ranks 0 and 1 on different simulated nodes: the
        pair must exchange envelopes over sockets, zero ring frames."""
        pair = _make_shm_pair(tmp_path, nodes=2)
        try:
            a, b = pair
            blob = Blob.encode("inter-node")
            a.send_envelope(1, Envelope(1, 0, 0, blob, "object", blob.nbytes))
            assert _wait(b.delivered.is_set, b)
            assert b.received[0].payload.decode() == "inter-node"
            assert a.shm_stats().ring_frames_sent == 0
            assert a.wire_bytes()[0] > blob.nbytes  # so every byte went over the socket
        finally:
            for ep in pair:
                ep.close()

    def test_mapped_blob_relays_over_socket(self, tmp_path):
        """A zero-copy (memoryview-backed) blob received over shm must
        survive re-sending over a socket — the forwarding case."""
        pair = _make_shm_pair(tmp_path, nprocs=2)
        try:
            a, b = pair
            payload = bytes(range(256)) * 200  # > the inline limit, pickle kind
            blob = Blob.encode(payload)
            a.send_envelope(1, Envelope(1, 0, 1, blob, "object", blob.nbytes))
            assert _wait(b.delivered.is_set, b)
            received = b.received[0].payload
            # simulate relaying the mapped blob over the socket path
            from repro.mpi.transport import decode_envelope, encode_envelope

            frame = encode_envelope(
                Envelope(1, 1, 2, received, "object", received.nbytes), 0, 1
            )
            env2, _, _ = decode_envelope(b"".join(frame))
            assert env2.payload.decode() == payload
        finally:
            for ep in pair:
                ep.close()

    def test_close_unlinks_segments(self, tmp_path):
        pair = _make_shm_pair(tmp_path)
        for ep in pair:
            ep.close()
        assert list_segments("pair", str(tmp_path)) == []

    def test_ring_backpressure_survives_burst(self, tmp_path):
        """Push far more bytes than the ring holds; backpressure plus
        doorbell kicks must land every frame without loss or deadlock."""
        pair = _make_shm_pair(tmp_path, ring_bytes=4096)
        try:
            a, b = pair
            count = 300
            payload = "y" * 400  # ~120 KiB total through a 4 KiB ring

            def burst():
                for i in range(count):
                    blob = Blob.encode((i, payload))
                    a.send_envelope(
                        1, Envelope(1, 0, i, blob, "object", blob.nbytes)
                    )

            sender = threading.Thread(target=burst)
            sender.start()
            assert _wait(lambda: len(b.received) == count, b, timeout=15.0)
            sender.join(15.0)
            assert not sender.is_alive()
            assert [e.payload.decode()[0] for e in b.received] == list(
                range(count)
            )
            assert not b.errors
        finally:
            for ep in pair:
                ep.close()

    def test_dead_peer_detected(self, tmp_path):
        """A peer that dies with the ring full must surface as a
        TransportError via the backpressure liveness probe, not a hang."""
        pair = _make_shm_pair(tmp_path, ring_bytes=4096)
        a, b = pair
        try:
            blob = Blob.encode("warm-up")
            a.send_envelope(1, Envelope(1, 0, 0, blob, "object", blob.nbytes))
            assert _wait(b.delivered.is_set, b)  # shm path established
            b.close()
            dead = Blob.encode("z" * 800)
            with pytest.raises(TransportError):
                for _ in range(500):  # fills the 4 KiB ring, then probes
                    a.send_envelope(
                        1, Envelope(1, 0, 0, dead, "object", dead.nbytes)
                    )
            assert not a.alive(1)
        finally:
            for ep in pair:
                ep.close()


# ---------------------------------------------------------------------------
# Segment sweeps by rank
# ---------------------------------------------------------------------------


class TestSweepRanks:
    def test_sweep_only_departed_ranks(self, tmp_path):
        d = str(tmp_path)
        for r in range(4):
            ShmSegment.create("job", r, 4, 4096, 8192, d).close()
        removed = sweep_segments("job", d, ranks=[1, 3])
        assert removed == [segment_path("job", 1, d), segment_path("job", 3, d)]
        assert list_segments("job", d) == [
            segment_path("job", 0, d),
            segment_path("job", 2, d),
        ]
        # full sweep (no ranks) still removes everything left
        assert len(sweep_segments("job", d)) == 2
        assert list_segments("job", d) == []

    def test_sweep_missing_rank_skipped(self, tmp_path):
        d = str(tmp_path)
        ShmSegment.create("job", 0, 2, 4096, 8192, d).close()
        assert sweep_segments("job", d, ranks=[0, 9]) == [
            segment_path("job", 0, d)
        ]
