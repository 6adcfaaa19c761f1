"""Grid extension (paper §9 future work (c)): channel, directory exchange,
cross-site messaging."""

import time

import pytest

from repro import components_setup
from repro.errors import ReproError
from repro.grid import ClusterSpec, GridChannel, GridSession, grid_setup, run_grid


class TestGridChannel:
    def test_post_and_collect(self):
        ch = GridChannel(["a", "b"])
        ch.post("a", "b", "ocean", 0, 7, {"x": 1})
        obj, src, tag = ch.collect("b", "ocean", 0, tag=7)
        assert obj == {"x": 1} and src == "a" and tag == 7

    def test_per_destination_matching(self):
        ch = GridChannel(["a", "b"])
        ch.post("a", "b", "ocean", 1, 1, "for-one")
        ch.post("a", "b", "ocean", 0, 1, "for-zero")
        obj, _, _ = ch.collect("b", "ocean", 0, tag=1)
        assert obj == "for-zero"
        obj, _, _ = ch.collect("b", "ocean", 1, tag=1)
        assert obj == "for-one"

    def test_fifo_per_match(self):
        ch = GridChannel(["a", "b"])
        for i in range(5):
            ch.post("a", "b", "c", 0, 2, i)
        got = [ch.collect("b", "c", 0, tag=2)[0] for _ in range(5)]
        assert got == list(range(5))

    def test_wildcard_tag_and_source(self):
        ch = GridChannel(["a", "b", "c"])
        ch.post("c", "b", "comp", 0, 42, "payload")
        obj, src, tag = ch.collect("b", "comp", 0)
        assert (obj, src, tag) == ("payload", "c", 42)

    def test_source_filter(self):
        ch = GridChannel(["a", "b", "c"])
        ch.post("a", "b", "comp", 0, 1, "from-a")
        ch.post("c", "b", "comp", 0, 1, "from-c")
        obj, src, _ = ch.collect("b", "comp", 0, src_cluster="c")
        assert obj == "from-c"

    def test_latency_delays_visibility(self):
        ch = GridChannel(["a", "b"], latency=0.15)
        ch.post("a", "b", "comp", 0, 1, "slow")
        start = time.monotonic()
        ch.collect("b", "comp", 0, tag=1)
        assert time.monotonic() - start >= 0.12

    def test_bandwidth_model(self):
        ch = GridChannel(["a", "b"], latency=0.01, bandwidth=1e6)
        assert ch.delay_for(1_000_000) == pytest.approx(1.01)

    def test_timeout(self):
        ch = GridChannel(["a", "b"])
        with pytest.raises(ReproError, match="timed out"):
            ch.collect("b", "comp", 0, timeout=0.1)

    def test_unknown_cluster_rejected(self):
        ch = GridChannel(["a", "b"])
        with pytest.raises(ReproError, match="unknown cluster"):
            ch.post("a", "z", "comp", 0, 1, None)

    def test_traffic_accounting(self):
        ch = GridChannel(["a", "b"])
        ch.post("a", "b", "comp", 0, 1, list(range(100)))
        assert ch.messages_carried == 1
        assert ch.bytes_carried > 0
        assert ch.pending("b") == 1

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ReproError):
            GridChannel(["a", "a"])

    @pytest.mark.parametrize(
        "latency, bandwidth",
        [
            (-1.0, None),
            (float("nan"), None),
            (float("inf"), None),
            (0.0, -1e3),  # a message would be visible before it is sent
            (0.0, 0.0),  # would silently mean unlimited
            (0.0, float("nan")),
            (0.0, float("inf")),
        ],
    )
    def test_negative_latency_rejected(self, latency, bandwidth):
        """A link whose delay is negative or not a finite number is a
        configuration error, not a receive that later times out."""
        with pytest.raises(ReproError, match="latency|bandwidth"):
            GridChannel(["a"], latency=latency, bandwidth=bandwidth)


def simple_component(name, actions):
    """actions(gmph, mph) -> result; run on every process of the component."""

    def program(world, env):
        mph = components_setup(world, name, env=env)
        gmph = grid_setup(mph, env.grid_cluster, env.grid_channel)
        return actions(gmph, mph)

    program.__name__ = name
    return program


class TestGridSetup:
    def test_directory_identical_everywhere(self):
        def report(gmph, mph):
            return [(c.cluster, c.name, c.size) for c in gmph.directory.components]

        res = run_grid(
            [
                ClusterSpec("east", [(simple_component("ocn", report), 2)], registry="BEGIN\nocn\nEND"),
                ClusterSpec("west", [(simple_component("atm", report), 3)], registry="BEGIN\natm\nEND"),
            ]
        )
        expected = [("east", "ocn", 2), ("west", "atm", 3)]
        for cluster in ("east", "west"):
            for value in res[cluster].values():
                assert value == expected

    def test_multi_component_clusters(self):
        def report(gmph, mph):
            return gmph.remote_component_size("south", "ice")

        res = run_grid(
            [
                ClusterSpec(
                    "north",
                    [(simple_component("atm", report), 1), (simple_component("lnd", report), 1)],
                    registry="BEGIN\natm\nlnd\nEND",
                ),
                ClusterSpec("south", [(simple_component("ice", report), 2)], registry="BEGIN\nice\nEND"),
            ]
        )
        assert set(res["north"].values()) == {2}

    def test_unknown_remote_component(self):
        def bad(gmph, mph):
            gmph.remote_component_size("east", "ghost")

        with pytest.raises(ReproError, match="no component"):
            run_grid(
                [
                    ClusterSpec("east", [(simple_component("a", bad), 1)], registry="BEGIN\na\nEND"),
                ]
            )


class TestCrossSiteMessaging:
    def test_pingpong_across_clusters(self):
        def ocean(gmph, mph):
            if mph.local_proc_id() == 0:
                gmph.send("sst-field", "west", "atm", 0, tag=3)
                obj, src, _ = gmph.recv(tag=4)
                return (obj, src)
            return None

        def atm(gmph, mph):
            if mph.local_proc_id() == 0:
                obj, src, _ = gmph.recv(tag=3)
                gmph.send(obj + "-ack", src, "ocn", 0, tag=4)
                return obj
            return None

        res = run_grid(
            [
                ClusterSpec("east", [(simple_component("ocn", ocean), 2)], registry="BEGIN\nocn\nEND"),
                ClusterSpec("west", [(simple_component("atm", atm), 2)], registry="BEGIN\natm\nEND"),
            ]
        )
        assert res["east"].values()[0] == ("sst-field-ack", "west")
        assert res["west"].values()[0] == "sst-field"

    def test_local_destination_short_circuits(self):
        """Same-cluster sends must use ordinary MPH, not the WAN."""

        def a(gmph, mph):
            if mph.local_proc_id() == 0:
                gmph.send("local", "solo", "b", 0, tag=9)
                return gmph.channel.messages_carried  # directory traffic only
            return None

        def b(gmph, mph):
            return mph.recv("a", 0, tag=9)  # arrives on the *MPI* world

        res = run_grid(
            [
                ClusterSpec(
                    "solo",
                    [(simple_component("a", a), 1), (simple_component("b", b), 1)],
                    registry="BEGIN\na\nb\nEND",
                ),
            ]
        )
        assert res["solo"].by_executable(1)[0] == "local"
        assert res["solo"].by_executable(0)[0] == 0  # nothing crossed the WAN

    def test_remote_rank_validated(self):
        def a(gmph, mph):
            gmph.send("x", "west", "atm", 99, tag=1)

        def atm(gmph, mph):
            return None

        with pytest.raises(ReproError, match="out of range"):
            run_grid(
                [
                    ClusterSpec("east", [(simple_component("a", a), 1)], registry="BEGIN\na\nEND"),
                    ClusterSpec("west", [(simple_component("atm", atm), 1)], registry="BEGIN\natm\nEND"),
                ]
            )

    def test_latency_applied_to_cross_site_traffic(self):
        def sender(gmph, mph):
            gmph.send("payload", "far", "b", 0, tag=1)
            return None

        def receiver(gmph, mph):
            start = time.monotonic()
            gmph.recv(tag=1)
            return time.monotonic() - start

        res = run_grid(
            [
                ClusterSpec("near", [(simple_component("a", sender), 1)], registry="BEGIN\na\nEND"),
                ClusterSpec("far", [(simple_component("b", receiver), 1)], registry="BEGIN\nb\nEND"),
            ],
            latency=0.1,
        )
        assert res["far"].values()[0] >= 0.05

    @pytest.mark.parametrize("roundtrips", [0, 5])
    def test_pingpong_pays_the_link_latency(self, roundtrips):
        """E16 (§9(c)): every cross-site hop is one message on the link,
        plus the 2 of the directory exchange.  The latency model is a
        visibility time, so the wall clock is only bounded below by the
        hops' latency."""
        latency = 0.01

        def make_side(name, peer_cluster, peer_component, initiate):
            def side(gmph, mph):
                for i in range(roundtrips):
                    if initiate:
                        gmph.send(i, peer_cluster, peer_component, 0, tag=1)
                        gmph.recv(tag=2)
                    else:
                        obj, src, _ = gmph.recv(tag=1)
                        gmph.send(obj, src, peer_component, 0, tag=2)

            return simple_component(name, side)

        session = GridSession(
            [
                ClusterSpec("east", [(make_side("ocn", "west", "atm", True), 1)], registry="BEGIN\nocn\nEND"),
                ClusterSpec("west", [(make_side("atm", "east", "ocn", False), 1)], registry="BEGIN\natm\nEND"),
            ],
            latency=latency,
        )
        start = time.monotonic()
        session.run()
        elapsed = time.monotonic() - start
        assert session.channel.messages_carried == 2 + 2 * roundtrips
        assert elapsed >= 2 * roundtrips * latency


class TestSessionFailures:
    def test_failure_on_one_cluster_fails_session(self):
        def bad(gmph, mph):
            raise RuntimeError("site outage")

        def good(gmph, mph):
            return True

        with pytest.raises(RuntimeError, match="site outage"):
            run_grid(
                [
                    ClusterSpec("a", [(simple_component("x", bad), 1)], registry="BEGIN\nx\nEND"),
                    ClusterSpec("b", [(simple_component("y", good), 1)], registry="BEGIN\ny\nEND"),
                ]
            )

    def test_duplicate_cluster_names(self):
        with pytest.raises(ReproError):
            GridSession(
                [
                    ClusterSpec("same", [], registry=None),
                    ClusterSpec("same", [], registry=None),
                ]
            )

    def test_clusters_have_independent_worlds(self):
        """Each cluster gets its own COMM_WORLD of its own size."""

        def report(gmph, mph):
            return mph.global_world.size

        res = run_grid(
            [
                ClusterSpec("big", [(simple_component("a", report), 4)], registry="BEGIN\na\nEND"),
                ClusterSpec("small", [(simple_component("b", report), 1)], registry="BEGIN\nb\nEND"),
            ]
        )
        assert set(res["big"].values()) == {4}
        assert set(res["small"].values()) == {1}


class TestPartialSessions:
    def test_allow_partial_survives_one_cluster_failure(self):
        def bad(gmph, mph):
            raise RuntimeError("site outage")

        def good(gmph, mph):
            return "fine"

        session = GridSession(
            [
                ClusterSpec("a", [(simple_component("x", bad), 1)], registry="BEGIN\nx\nEND"),
                ClusterSpec("b", [(simple_component("y", good), 1)], registry="BEGIN\ny\nEND"),
            ]
        )
        results = session.run(allow_partial=True)
        assert sorted(results) == ["b"]
        assert set(session.failures) == {"a"}
        assert isinstance(session.failures["a"], RuntimeError)

    def test_allow_partial_still_fails_when_every_cluster_dies(self):
        def bad(gmph, mph):
            raise RuntimeError("total outage")

        session = GridSession(
            [
                ClusterSpec("a", [(simple_component("x", bad), 1)], registry="BEGIN\nx\nEND"),
                ClusterSpec("b", [(simple_component("y", bad), 1)], registry="BEGIN\ny\nEND"),
            ]
        )
        with pytest.raises(RuntimeError, match="total outage"):
            session.run(allow_partial=True)
        assert set(session.failures) == {"a", "b"}

    def test_default_remains_all_or_nothing(self):
        def bad(gmph, mph):
            raise RuntimeError("site outage")

        def good(gmph, mph):
            return "fine"

        session = GridSession(
            [
                ClusterSpec("a", [(simple_component("x", bad), 1)], registry="BEGIN\nx\nEND"),
                ClusterSpec("b", [(simple_component("y", good), 1)], registry="BEGIN\ny\nEND"),
            ]
        )
        with pytest.raises(RuntimeError, match="site outage"):
            session.run()
        assert set(session.failures) == {"a"}
