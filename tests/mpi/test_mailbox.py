"""Mailbox internals: matching, posting order, cancellation
(repro.mpi.mailbox) — exercised directly, without communicators."""

import pytest

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.mailbox import Envelope, Mailbox, PostedRecv
from repro.mpi.serialization import Blob
from repro.mpi.world import World


def env(ctx=0, source=0, tag=0, payload=b"", kind="object"):
    blob = Blob.encode(payload)
    return Envelope(ctx, source, tag, blob, kind, blob.nbytes)


@pytest.fixture
def mailbox():
    world = World(1)
    return world.mailboxes[0]


class TestEnvelopeMatching:
    def test_exact_match(self):
        assert env(ctx=1, source=2, tag=3).matches(1, 2, 3)

    def test_context_must_match(self):
        assert not env(ctx=1).matches(2, ANY_SOURCE, ANY_TAG)

    def test_wildcards(self):
        e = env(ctx=0, source=4, tag=9)
        assert e.matches(0, ANY_SOURCE, 9)
        assert e.matches(0, 4, ANY_TAG)
        assert e.matches(0, ANY_SOURCE, ANY_TAG)

    def test_mismatched_source_or_tag(self):
        e = env(source=4, tag=9)
        assert not e.matches(0, 5, 9)
        assert not e.matches(0, 4, 8)


class TestPostedRecv:
    def test_accepts_delegates_to_matches(self):
        pr = PostedRecv(0, ANY_SOURCE, 7)
        assert pr.accepts(env(tag=7))
        assert not pr.accepts(env(tag=8))

    def test_done_transitions(self):
        pr = PostedRecv(0, 0, 0)
        assert not pr.done
        pr.envelope = env()
        assert pr.done


class TestMailboxQueues:
    def test_deliver_then_post(self, mailbox):
        mailbox.deliver(env(tag=5, payload=b"x"))
        pr = mailbox.post_recv(0, ANY_SOURCE, 5)
        assert pr.done and pr.envelope.payload.decode() == b"x"

    def test_post_then_deliver(self, mailbox):
        pr = mailbox.post_recv(0, ANY_SOURCE, 5)
        assert not pr.done
        mailbox.deliver(env(tag=5))
        assert pr.done

    def test_earliest_pending_matched_first(self, mailbox):
        mailbox.deliver(env(tag=1, payload=b"first"))
        mailbox.deliver(env(tag=1, payload=b"second"))
        pr = mailbox.post_recv(0, ANY_SOURCE, 1)
        assert pr.envelope.payload.decode() == b"first"

    def test_earliest_posted_matched_first(self, mailbox):
        pr1 = mailbox.post_recv(0, ANY_SOURCE, 1)
        pr2 = mailbox.post_recv(0, ANY_SOURCE, 1)
        mailbox.deliver(env(tag=1, payload=b"goes-to-first"))
        assert pr1.done and not pr2.done

    def test_selective_posting_skips_nonmatching_pending(self, mailbox):
        mailbox.deliver(env(tag=1, payload=b"one"))
        mailbox.deliver(env(tag=2, payload=b"two"))
        pr = mailbox.post_recv(0, ANY_SOURCE, 2)
        assert pr.envelope.payload.decode() == b"two"
        assert mailbox.stats() == (1, 0)

    def test_delivery_skips_nonmatching_posted(self, mailbox):
        pr_other = mailbox.post_recv(0, ANY_SOURCE, 9)
        mailbox.deliver(env(tag=1))
        assert not pr_other.done
        assert mailbox.stats() == (1, 1)

    def test_cancel_unmatched(self, mailbox):
        pr = mailbox.post_recv(0, ANY_SOURCE, 1)
        assert mailbox.cancel(pr) is True
        mailbox.deliver(env(tag=1))
        assert not pr.done  # cancelled receive never matches

    def test_cancel_matched_fails(self, mailbox):
        mailbox.deliver(env(tag=1))
        pr = mailbox.post_recv(0, ANY_SOURCE, 1)
        assert mailbox.cancel(pr) is False

    def test_stats(self, mailbox):
        mailbox.deliver(env(tag=1))
        mailbox.post_recv(0, ANY_SOURCE, 2)
        assert mailbox.stats() == (1, 1)


class TestProbeNonblocking:
    def test_probe_peeks_without_removing(self, mailbox):
        mailbox.deliver(env(tag=3, payload=b"keep"))
        found = mailbox.probe(0, ANY_SOURCE, 3, block=False, what="test")
        assert found is not None and found.payload.decode() == b"keep"
        assert mailbox.stats() == (1, 0)

    def test_probe_empty_returns_none(self, mailbox):
        assert mailbox.probe(0, ANY_SOURCE, ANY_TAG, block=False, what="test") is None

    def test_probe_respects_context(self, mailbox):
        mailbox.deliver(env(ctx=7, tag=1))
        assert mailbox.probe(0, ANY_SOURCE, ANY_TAG, block=False, what="t") is None
        assert mailbox.probe(7, ANY_SOURCE, ANY_TAG, block=False, what="t") is not None
