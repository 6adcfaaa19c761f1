"""Wire-framing and socket-transport unit tests.

The process backend's correctness rests on one low-level invariant: the
length-prefixed framing must reassemble *exactly* the bytes that were
sent, for any payload size and any way the kernel happens to split the
stream — and a stream that ends mid-frame must surface a clean
:class:`TransportError` (a :class:`ReproError`), never a hang or a
garbage message.  These tests drive :class:`FrameDecoder` through
adversarial splits and torn streams directly, then exercise a real
two-endpoint :class:`SocketTransport` pair over Unix sockets.
"""

from __future__ import annotations

import pickle
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import ReproError, TransportError
from repro.mpi import run_spmd
from repro.mpi.mailbox import Envelope
from repro.mpi.progress import Completion
from repro.mpi.serialization import Blob
from repro.mpi.transport import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    SocketTransport,
    decode_envelope,
    encode_envelope,
    make_listener,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.mpi.world import WorldConfig


# ---------------------------------------------------------------------------
# Framing: pack/decode round trips
# ---------------------------------------------------------------------------


PAYLOAD_SIZES = [0, 1, 2, 3, 4, 5, 63, 64, 65, 1023, 4096, 3 * 1024 * 1024]


class TestFraming:
    @pytest.mark.parametrize("size", PAYLOAD_SIZES)
    def test_roundtrip_single_feed(self, size):
        payload = bytes(i & 0xFF for i in range(size))
        decoder = FrameDecoder()
        frames = decoder.feed(pack_frame(payload))
        assert frames == [payload]
        assert not decoder.partial
        decoder.finish()  # clean end of stream

    @pytest.mark.parametrize("size", [0, 1, 5, 63, 1023])
    def test_roundtrip_byte_at_a_time(self, size):
        """Every split is legal, including one byte at a time mid-header."""
        payload = bytes(range(size % 251)) * (size // max(size % 251, 1) + 1)
        payload = payload[:size]
        wire = pack_frame(payload)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i : i + 1]))
        assert frames == [payload]
        assert not decoder.partial

    def test_roundtrip_random_splits(self):
        """Fuzz: many frames of varied sizes through random chunking."""
        rng = random.Random(0xC0FFEE)
        payloads = [
            bytes(rng.getrandbits(8) for _ in range(rng.choice([0, 1, 7, 100, 5000])))
            for _ in range(40)
        ]
        wire = b"".join(pack_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        pos = 0
        while pos < len(wire):
            step = rng.randint(1, 997)
            out.extend(decoder.feed(wire[pos : pos + step]))
            pos += step
        assert out == payloads
        assert not decoder.partial
        decoder.finish()

    def test_multiple_frames_one_feed(self):
        decoder = FrameDecoder()
        frames = decoder.feed(pack_frame(b"one") + pack_frame(b"") + pack_frame(b"three"))
        assert frames == [b"one", b"", b"three"]

    def test_torn_frame_mid_payload(self):
        decoder = FrameDecoder()
        wire = pack_frame(b"x" * 100)
        assert decoder.feed(wire[:50]) == []
        assert decoder.partial
        with pytest.raises(TransportError, match="torn frame"):
            decoder.finish()

    def test_torn_frame_mid_header(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        assert decoder.partial
        with pytest.raises(TransportError, match="torn frame"):
            decoder.finish()

    def test_torn_frame_is_repro_error(self):
        """The failure contract: torn streams surface as ReproError."""
        decoder = FrameDecoder()
        decoder.feed(pack_frame(b"abc")[:-1])
        with pytest.raises(ReproError):
            decoder.finish()

    def test_corrupt_length_rejected(self):
        """A declared length past MAX_FRAME_BYTES means a corrupt or
        hostile stream; the decoder refuses rather than buffering a GiB."""
        decoder = FrameDecoder()
        with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_pack_frame_rejects_oversized(self):
        class _HugeLen(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
            pack_frame(_HugeLen())


# ---------------------------------------------------------------------------
# send_frame / recv_frame over a socketpair
# ---------------------------------------------------------------------------


class TestFrameIO:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"msg": list(range(100))})
            assert recv_frame(b, timeout=5.0) == {"msg": list(range(100))}
        finally:
            a.close()
            b.close()

    def test_back_to_back_frames_come_out_one_per_call(self):
        """A peer may write its next frame before the first is read: each
        call must take exactly one frame and leave the next in the
        socket."""
        a, b = socket.socketpair()
        try:
            a.sendall(
                pack_frame(pickle.dumps(("hello", 3, "rank3.sock")))
                + pack_frame(pickle.dumps(("result", 3, True, "value", None)))
            )
            assert recv_frame(b, timeout=5.0) == ("hello", 3, "rank3.sock")
            assert recv_frame(b, timeout=5.0) == ("result", 3, True, "value", None)
            a.close()
            assert recv_frame(b, timeout=5.0) is None
        finally:
            a.close()
            b.close()

    def test_oversized_declared_length_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b, timeout=5.0) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            frame = pack_frame(pickle.dumps("payload"))
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(TransportError, match="torn frame"):
                recv_frame(b, timeout=5.0)
        finally:
            b.close()

    def test_timeout_raises_cleanly(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(TransportError, match="timed out"):
                recv_frame(b, timeout=0.1)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Envelope wire encoding
# ---------------------------------------------------------------------------


def _frame(env, sync_id=0, from_rank=-1):
    """A message frame's bytes, as the receiver reads them."""
    return b"".join(encode_envelope(env, sync_id, from_rank))


class TestEnvelopeCodec:
    def test_pickle_blob_roundtrip(self):
        blob = Blob.encode({"k": (1, 2.5)})
        env = Envelope(7, 3, 42, blob, "object", blob.nbytes)
        out, sync_id, from_rank = decode_envelope(_frame(env, sync_id=9, from_rank=5))
        assert (out.context, out.source, out.tag) == (7, 3, 42)
        assert (out.kind, out.count) == ("object", blob.nbytes)
        assert (sync_id, from_rank) == (9, 5)
        assert out.payload.decode() == {"k": (1, 2.5)}

    def test_array_blob_stays_readonly(self):
        blob = Blob.encode(np.arange(8, dtype=np.int64))
        env = Envelope(2, 0, 0, blob, "object", blob.nbytes)
        out, _, _ = decode_envelope(_frame(env))
        assert out.payload.kind == "array"
        assert not out.payload.data.flags.writeable
        np.testing.assert_array_equal(out.payload.decode(), np.arange(8))

    def test_buffer_mode_array_roundtrip(self):
        arr = np.linspace(0.0, 1.0, 17)
        env = Envelope(4, 1, 8, Blob.encode(arr), "buffer", arr.size)
        out, _, _ = decode_envelope(_frame(env))
        assert (out.kind, out.count) == ("buffer", arr.size)
        np.testing.assert_array_equal(out.payload.data, arr)

    def test_op_metadata_carried(self):
        blob = Blob.encode([1, 2])
        env = Envelope(6, 0, 0, blob, "object", blob.nbytes, op="sum")
        out, _, _ = decode_envelope(_frame(env))
        assert out.op == "sum"

    def test_payload_crosses_unpickled(self):
        """A message frame is a fixed header, the op name, and the blob's
        bytes as they are: the pickle blob's pickle appears verbatim."""
        blob = Blob.encode(("step", list(range(50))))
        env = Envelope(2, 1, 3, blob, "object", blob.nbytes, op="bcast")
        head, payload = encode_envelope(env, 0, 1)
        assert bytes(payload) == blob.data
        assert len(head) < 64 and head[:1] == b"M"
        out, _, _ = decode_envelope(memoryview(head + bytes(payload)))
        assert out.op == "bcast" and out.payload.decode() == ("step", list(range(50)))

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=">i4").reshape(3, 4),
            np.array(2.5),
            np.zeros((0, 3)),
            np.array(["ab", "c"]),
            np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")]),
            np.array([1, 2], dtype="datetime64[s]"),
        ],
        ids=["big-endian-2d", "0-d", "empty", "unicode", "structured", "datetime"],
    )
    def test_array_dtypes_and_shapes_roundtrip(self, arr):
        env = Envelope(1, 0, 0, Blob.encode(arr), "buffer", arr.size)
        out = decode_envelope(_frame(env))[0].payload
        assert out.kind == "array" and not out.data.flags.writeable
        assert out.data.dtype == arr.dtype and out.data.shape == arr.shape
        assert out.nbytes == arr.nbytes
        np.testing.assert_array_equal(out.decode(), arr)

    def test_truncated_header_is_transport_error(self):
        with pytest.raises(TransportError, match="corrupt message frame"):
            decode_envelope(b"M\x00\x00")


# ---------------------------------------------------------------------------
# SocketTransport: a real two-endpoint pair
# ---------------------------------------------------------------------------


def _make_pair(tmp_path):
    """Two wired SocketTransport endpoints with recording callbacks."""
    addrs = {rank: str(tmp_path / f"ep{rank}.sock") for rank in range(2)}
    listeners = [make_listener(addrs[rank]) for rank in range(2)]
    endpoints = []
    for rank in range(2):
        ep = SocketTransport(rank, 2, listeners[rank], addrs)
        ep.received = []
        ep.errors = []
        ep.aborts = []
        ep.delivered = threading.Event()

        def deliver(env, ep=ep):
            ep.received.append(env)
            ep.delivered.set()
            if env.sync_event is not None:
                env.sync_event.set()  # ack immediately, as a match would

        ep.deliver_local = deliver
        ep.on_error = ep.errors.append
        ep.on_abort = lambda origin, msg, ep=ep: ep.aborts.append((origin, msg))
        endpoints.append(ep)
    return endpoints


def _progress_until(pred, *endpoints, timeout=5.0):
    """Turn each endpoint's progress loop until *pred* holds (``False``
    past *timeout*).  An endpoint has no thread of its own: whoever
    waits on it turns its loop, as a process rank's blocked call does."""
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            return False
        for ep in endpoints:
            ep.progress(0.01)
    return True


def _send_in_thread(ep, dest, env):
    """Send from a thread of its own: a send larger than the socket
    buffer completes only while the receiver's loop is turned."""
    sender = threading.Thread(target=ep.send_envelope, args=(dest, env))
    sender.start()
    return sender


@pytest.fixture
def transport_pair(tmp_path):
    pair = _make_pair(tmp_path)
    yield pair
    for ep in pair:
        ep.close()


class TestSocketTransport:
    def test_envelope_delivery(self, transport_pair):
        a, b = transport_pair
        blob = Blob.encode("hello")
        a.send_envelope(1, Envelope(3, 0, 5, blob, "object", blob.nbytes))
        assert _progress_until(b.delivered.is_set, b)
        env = b.received[0]
        assert (env.context, env.source, env.tag) == (3, 0, 5)
        assert env.payload.decode() == "hello"

    def test_self_send_short_circuits(self, transport_pair):
        a, _ = transport_pair
        blob = Blob.encode("loopback")
        a.send_envelope(0, Envelope(1, 0, 0, blob, "object", blob.nbytes))
        assert a.received[0].payload.decode() == "loopback"
        assert a.wire_bytes() == (0, 0)  # never touched the wire

    def test_sync_ack_completes_sender(self, transport_pair):
        a, b = transport_pair
        blob = Blob.encode("sync")
        completion = Completion()
        env = Envelope(1, 0, 2, blob, "object", blob.nbytes, sync_event=completion)
        a.send_envelope(1, env)
        assert _progress_until(lambda: completion.done, b, a), "ack frame never completed the ssend"

    def test_abort_broadcast(self, transport_pair):
        a, b = transport_pair
        a.broadcast_abort(0, "rank 0 failed")
        assert _progress_until(lambda: b.aborts, b)
        assert b.aborts == [(0, "rank 0 failed")]

    def test_stats_count_wire_traffic(self, transport_pair):
        """``wire_bytes`` counts every byte once on each side: what one
        end sent is what the other received, payload plus framing."""
        a, b = transport_pair
        blob = Blob.encode(list(range(1000)))
        a.send_envelope(1, Envelope(1, 0, 0, blob, "object", blob.nbytes))
        assert _progress_until(b.delivered.is_set, b)  # every byte counted before delivery
        sent, a_received = a.wire_bytes()
        b_sent, received = b.wire_bytes()
        assert sent == received > blob.nbytes
        assert a_received == b_sent == 0

    def test_unknown_peer_rejected(self, transport_pair):
        a, _ = transport_pair
        blob = Blob.encode("x")
        with pytest.raises(TransportError, match="no address"):
            a.send_envelope(7, Envelope(1, 0, 0, blob, "object", blob.nbytes))

    def test_dead_peer_flagged_not_hung(self, transport_pair):
        a, b = transport_pair
        b.close()
        blob = Blob.encode("x")
        with pytest.raises(TransportError):
            for _ in range(20):  # first sends may land in the accept backlog
                a.send_envelope(1, Envelope(1, 0, 0, blob, "object", blob.nbytes))
        assert not a.alive(1)

    def test_torn_inbound_stream_reports_error(self, transport_pair):
        """A peer dying mid-frame must surface through on_error, not
        hang the reader or fabricate a message."""
        _, b = transport_pair
        path = b._peers[1]
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(path)
        frame = pack_frame(pickle.dumps(("msg",)))
        raw.sendall(frame[: len(frame) - 2])
        raw.close()
        assert _progress_until(lambda: b.errors, b)
        assert len(b.errors) == 1
        assert isinstance(b.errors[0], TransportError)
        assert b.received == []

    def test_large_payload_over_wire(self, transport_pair):
        """A multi-MiB frame crosses intact (exercises kernel-sized
        splits on the reading side for real)."""
        a, b = transport_pair
        big = np.random.default_rng(7).standard_normal(500_000)  # ~4 MiB
        blob = Blob.encode(big)
        sender = _send_in_thread(a, 1, Envelope(1, 0, 3, blob, "object", blob.nbytes))
        assert _progress_until(b.delivered.is_set, b, timeout=10.0)
        sender.join(10.0)
        assert not sender.is_alive()
        np.testing.assert_array_equal(b.received[0].payload.decode(), big)

    def test_close_returns_with_the_accept_thread_gone(self, tmp_path):
        """Nothing of a closed endpoint may touch a descriptor *number*
        afterwards: in a process that goes straight on to its next world
        (a parked rank) the number is the next listener's by then, and a
        stale accept loop once accepted — and dropped — a connection of
        the new world about once in 400 jobs.  The endpoint has no thread
        at all now, so none outlives ``close()``, and ``close()`` leaves
        none of its descriptors open."""
        for round_ in range(20):
            (tmp_path / f"r{round_}").mkdir()
            before = set(threading.enumerate())
            a, b = _make_pair(tmp_path / f"r{round_}")
            blob = Blob.encode(round_)
            a.send_envelope(1, Envelope(1, 0, 3, blob, "object", blob.nbytes))
            assert _progress_until(b.delivered.is_set, b)
            assert set(threading.enumerate()) == before
            for ep in (a, b):
                ep.close()
                assert ep._listener.fileno() == -1
                assert ep._wake_r.fileno() == ep._wake_w.fileno() == -1


# ---------------------------------------------------------------------------
# Process ranks: liveness of the sockets a rank drives itself
# ---------------------------------------------------------------------------


_EIGHT_MIB = 1 << 20  # float64 elements


@pytest.mark.parametrize("transport", ["unix", "shm"])
class TestProcessRankLiveness:
    """Sends far larger than a socket buffer must complete however the
    ranks are arranged: a rank whose send would block keeps reading what
    its peers send it, and a rank that has returned keeps reading until
    the launcher releases it."""

    def test_crossing_large_sends_both_complete(self, transport):
        def fn(comm):
            peer = 1 - comm.rank
            comm.send(np.full(_EIGHT_MIB, float(comm.rank)), peer, tag=3)
            got = comm.recv(source=peer, tag=3)
            return float(got[0]), float(got[-1]), got.nbytes

        out = run_spmd(
            2, fn, config=WorldConfig(backend="process", transport=transport), timeout=60.0
        )
        assert out == [(1.0, 1.0, 8 << 20), (0.0, 0.0, 8 << 20)]

    def test_unreceived_eager_send_does_not_stall_the_launch(self, transport):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.ones(_EIGHT_MIB), 1, tag=5)  # never received
                return "sent"
            return "returned"

        out = run_spmd(
            2, fn, config=WorldConfig(backend="process", transport=transport), timeout=60.0
        )
        assert out == ["sent", "returned"]

    def test_a_rank_runs_its_main_thread_and_watchdog_only(self, transport):
        """No thread sits between a rank and its sockets: after an
        allreduce over ten process ranks, each runs at most its main
        thread and the deadlock watchdog."""

        def fn(comm):
            comm.allreduce(comm.rank)
            return sorted(t.name for t in threading.enumerate())

        out = run_spmd(
            10, fn, config=WorldConfig(backend="process", transport=transport), timeout=120.0
        )
        assert all(len(names) <= 2 for names in out), out


@pytest.mark.parametrize("transport", ["unix", "shm"])
class TestCrossThreadDelivery:
    """A rank's own thread turns its transport loop while it waits, so a
    message that reaches the rank by another road — a second thread of
    the same process sending to its own rank — must still end the wait."""

    def test_second_thread_self_send_wakes_a_blocked_recv(self, transport):
        def fn(comm):
            me = comm.rank

            def sender():
                assert comm.world.wait_until_blocked([me], timeout=10.0)
                comm.send(("from a thread", me), me, tag=9)

            thread = threading.Thread(target=sender)
            thread.start()
            start = time.monotonic()
            got = comm.recv(source=me, tag=9)
            took = time.monotonic() - start
            thread.join()
            return got, took

        out = run_spmd(
            2, fn, config=WorldConfig(backend="process", transport=transport), timeout=30.0
        )
        assert [got for got, _ in out] == [("from a thread", 0), ("from a thread", 1)]
        assert all(took < 1.0 for _, took in out), out

    def test_self_sends_from_many_threads_all_arrive(self, transport):
        """Stress of the same wake path: more sending threads than cores,
        a short switch interval, and the main thread receiving every
        message while they race its waits."""
        import sys

        def fn(comm):
            me, senders, each = comm.rank, 4, 50
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(
                        target=lambda t=t: [comm.send((t, i), me, tag=4) for i in range(each)]
                    )
                    for t in range(senders)
                ]
                for thread in threads:
                    thread.start()
                got = sorted(comm.recv(source=me, tag=4) for _ in range(senders * each))
                for thread in threads:
                    thread.join(10.0)
                return got == [(t, i) for t in range(senders) for i in range(each)] and not any(
                    thread.is_alive() for thread in threads
                )
            finally:
                sys.setswitchinterval(interval)

        out = run_spmd(
            2, fn, config=WorldConfig(backend="process", transport=transport), timeout=60.0
        )
        assert out == [True, True]


def _count_round_trip_calls(comm):
    """Python-level calls (``sys.setprofile`` ``"call"`` events) this rank
    makes in one send and one blocking receive of the coupled step's
    message shape, after warm-up round trips have opened every
    connection."""
    import sys

    first = comm.rank == 0
    peer = 1 if first else 0
    msg = np.zeros(1 + 16 * 128)  # a step word, then a 16 x 128 float64 block
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    for trip in range(6):
        if trip == 5:
            sys.setprofile(profile)
        if first:
            comm.send(msg, peer, tag=7)
            got = comm.recv(source=peer, tag=7)
        else:
            got = comm.recv(source=peer, tag=7)
            comm.send(got, peer, tag=7)
        sys.setprofile(None)
    assert got.shape == msg.shape and not got.any()
    return calls[0]


class TestMessagePathBudget:
    """One message is one pass through send, frame, dispatch, match and
    wake: a process-rank round trip of the coupled step's message shape
    (one send and one blocking receive on each rank) stays within a fixed
    budget of Python-level calls."""

    BUDGET = 65

    def test_process_round_trip_calls(self):
        out = run_spmd(
            2, _count_round_trip_calls, config=WorldConfig(backend="process"), timeout=60.0
        )
        assert max(out) <= self.BUDGET, out
