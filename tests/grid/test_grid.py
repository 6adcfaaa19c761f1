"""Grid extension (paper §9 future work (c)): one world across the sites,
the directory exchange, cross-site messaging and its link model.

Every case runs on the ``leg_config`` backend (threads in tier-1; CI's
backend legs run the file over sockets, rings and two nodes); the E16
claims and ``allow_partial`` run on both backends in every leg.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro import components_setup
from repro.errors import DeadlockError, ReproError, TimeoutError_
from repro.grid import ClusterSpec, grid_setup, run_grid
from repro.mpi import WorldConfig


def nprocs_of(clusters):
    return sum(item[1] for spec in clusters for item in spec.executables)


@pytest.fixture
def grid(leg_config, backend_machine):
    """``run(clusters, **kw)``: :func:`run_grid` on the leg's backend and
    machine."""

    def run(clusters, config=None, timeout=60, **kw):
        machine = backend_machine(nprocs_of(clusters))
        return run_grid(clusters, config=config or leg_config, machine=machine, timeout=timeout, **kw)

    return run


@pytest.fixture
def both_backends(pytestconfig):
    """The thread world and forked ranks over the leg's transport."""
    transport = pytestconfig.getoption("--mpi-transport")
    return [WorldConfig(), WorldConfig(backend="process", transport=transport)]


def job_messages(results, config):
    """Messages the whole job delivered: a thread world's ranks share one
    world's counters, a process rank counts what it received."""
    procs = [p for part in results.values() for p in part.procs]
    if config.backend == "process":
        return sum(p.traffic.messages for p in procs)
    return procs[0].traffic.messages


def simple_component(name, actions):
    """actions(gmph, mph) -> result; run on every process of the component."""

    def program(world, env):
        mph = components_setup(world, name, env=env)
        gmph = grid_setup(mph, env)
        return actions(gmph, mph)

    program.__name__ = name
    return program


def pair(east, west, east_n=1, west_n=1):
    """Cluster ``east`` running component ``a`` and ``west`` running ``b``."""
    return [
        ClusterSpec("east", [(simple_component("a", east), east_n)], registry="BEGIN\na\nEND"),
        ClusterSpec("west", [(simple_component("b", west), west_n)], registry="BEGIN\nb\nEND"),
    ]


def idle(gmph, mph):
    return None


class SiteOutage(RuntimeError):
    """A user exception type that must survive the trip from a rank."""


class TestGridChannel:
    """The wide-area link: cross-site messages on the world's duplicate,
    visible once the link model says they have arrived."""

    def test_post_and_collect(self, grid):
        def east(gmph, mph):
            gmph.send({"x": 1}, "west", "b", 0, tag=7)

        res = grid(pair(east, lambda gmph, mph: gmph.recv(tag=7)))
        assert res["west"].values() == [({"x": 1}, "east", 7)]

    def test_per_destination_matching(self, grid):
        def east(gmph, mph):
            gmph.send("for-one", "west", "b", 1, tag=1)
            gmph.send("for-zero", "west", "b", 0, tag=1)

        res = grid(pair(east, lambda gmph, mph: gmph.recv(tag=1)[0], west_n=2))
        assert res["west"].values() == ["for-zero", "for-one"]

    def test_fifo_per_match(self, grid):
        def east(gmph, mph):
            for i in range(5):
                gmph.send(i, "west", "b", 0, tag=2)

        res = grid(pair(east, lambda gmph, mph: [gmph.recv(tag=2)[0] for _ in range(5)]))
        assert res["west"].values() == [list(range(5))]

    def test_wildcard_tag_and_source(self, grid):
        def c(gmph, mph):
            gmph.send("payload", "west", "b", 0, tag=42)

        clusters = pair(idle, lambda gmph, mph: gmph.recv())
        clusters.append(ClusterSpec("far", [(simple_component("c", c), 1)], registry="BEGIN\nc\nEND"))
        res = grid(clusters)
        assert res["west"].values() == [("payload", "far", 42)]

    def _visibility(self, grid, latency, bandwidth, payload, floor):
        def east(gmph, mph):
            sent_at = time.monotonic()
            gmph.send(payload, "west", "b", 0, tag=1)
            return sent_at

        def west(gmph, mph):
            gmph.recv(tag=1)
            return time.monotonic()

        res = grid(pair(east, west), latency=latency, bandwidth=bandwidth)
        assert res["west"].values()[0] - res["east"].values()[0] >= floor

    def test_latency_delays_visibility(self, grid):
        """A message is received no earlier than *latency* after its send."""
        self._visibility(grid, 0.15, None, "slow", 0.15)

    def test_bandwidth_model(self, grid):
        """... and *nbytes / bandwidth* later again: 100 kB at 1 MB/s."""
        self._visibility(grid, 0.01, 1e6, np.zeros(12_500), 0.11)

    def test_timeout(self, grid, leg_config):
        """A receive nobody answers is the thread world's deadlock, naming
        the receive; forked ranks run out the job's timeout, which names
        the rank."""
        clusters = pair(lambda gmph, mph: gmph.recv(tag=5), idle)
        if leg_config.backend == "process":
            with pytest.raises(TimeoutError_, match=r"a\.0 \(world rank 0\)"):
                grid(clusters, timeout=2)
            return
        config = dataclasses.replace(leg_config, deadlock_grace=0.3)
        with pytest.raises(DeadlockError, match=r"recv\(source=-101, tag=5\) on COMM_WORLD\.dup"):
            grid(clusters, config=config)

    def test_unknown_cluster_rejected(self, grid):
        with pytest.raises(ReproError, match="unknown cluster 'z'"):
            grid(pair(lambda gmph, mph: gmph.send(None, "z", "b", 0, tag=1), idle))

    def test_traffic_accounting(self, grid, leg_config):
        """A cross-site message is one message of the job, whatever it
        carries."""

        def run(n):
            def east(gmph, mph):
                for _ in range(n):
                    gmph.send(list(range(100)), "west", "b", 0, tag=1)

            def west(gmph, mph):
                return [gmph.recv(tag=1)[0] for _ in range(n)]

            return job_messages(grid(pair(east, west)), leg_config)

        assert run(1) - run(0) == 1

    def test_duplicate_cluster_names_rejected(self, grid):
        spec = ClusterSpec("a", [(simple_component("x", idle), 1)])
        with pytest.raises(ReproError, match="distinct"):
            grid([spec, spec])

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
        launch error, not a receive that later hangs."""
        spec = ClusterSpec("a", [(simple_component("x", idle), 1)])
        with pytest.raises(ReproError, match="latency|bandwidth"):
            run_grid([spec], latency=latency, bandwidth=bandwidth)


class TestLaunchChecks:
    """``run_grid`` refuses a launch that cannot run before any rank
    starts."""

    @pytest.mark.parametrize(
        "kwargs, clusters, match",
        [
            ({"latency": True}, None, "latency"),
            ({"latency": "0.1"}, None, "latency"),
            ({"bandwidth": True}, None, "bandwidth"),
            ({"bandwidth": "fast"}, None, "bandwidth"),
            ({}, [], "non-empty"),
            ({}, [ClusterSpec("", [])], "non-empty"),
            ({}, [ClusterSpec("a", [])], "no executables"),
            ({}, [ClusterSpec("a", ["prog"])], "callable, nprocs"),
            ({}, [ClusterSpec("a", [(len,)])], "callable, nprocs"),
        ],
        ids=[
            "bool_latency",
            "str_latency",
            "bool_bandwidth",
            "str_bandwidth",
            "no_clusters",
            "empty_name",
            "empty_cluster",
            "not_a_tuple",
            "no_nprocs",
        ],
    )
    def test_bad_launch_refused(self, kwargs, clusters, match):
        started = []
        if clusters is None:
            clusters = [ClusterSpec("a", [(lambda world, env: started.append(1), 1)])]
        with pytest.raises(ReproError, match=match):
            run_grid(clusters, **kwargs)
        assert not started


class TestGridSetup:
    def test_directory_identical_everywhere(self, grid):
        def report(gmph, mph):
            return gmph.directory.components

        res = grid(pair(report, report, east_n=2, west_n=3))
        expected = (("east", "a", 2), ("west", "b", 3))
        for cluster in ("east", "west"):
            for value in res[cluster].values():
                assert value == expected

    def test_multi_component_clusters(self, grid):
        def report(gmph, mph):
            return gmph.remote_component_size("south", "ice")

        res = grid(
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
        assert res["north"].by_executable(1) == [2]

    def test_unknown_remote_component(self, grid):
        def bad(gmph, mph):
            gmph.remote_component_size("east", "ghost")

        with pytest.raises(ReproError, match="no component"):
            grid([ClusterSpec("east", [(simple_component("a", bad), 1)], registry="BEGIN\na\nEND")])


class TestCrossSiteMessaging:
    def test_pingpong_across_clusters(self, grid):
        def ocean(gmph, mph):
            if mph.local_proc_id() == 0:
                gmph.send("sst-field", "west", "b", 0, tag=3)
                obj, src, _ = gmph.recv(tag=4)
                return (obj, src)
            return None

        def atm(gmph, mph):
            if mph.local_proc_id() == 0:
                obj, src, _ = gmph.recv(tag=3)
                gmph.send(obj + "-ack", src, "a", 0, tag=4)
                return obj
            return None

        res = grid(pair(ocean, atm, east_n=2, west_n=2))
        assert res["east"].values()[0] == ("sst-field-ack", "west")
        assert res["west"].values()[0] == "sst-field"

    def test_local_destination_short_circuits(self, grid):
        """Same-cluster sends must use ordinary MPH, not the wide area."""

        def a(gmph, mph):
            gmph.send("local", "solo", "b", 0, tag=9)

        def b(gmph, mph):
            # Arrives on the site's MPH world; nothing is on the wide one.
            return mph.recv("a", 0, tag=9), gmph.world.iprobe()

        res = grid(
            [
                ClusterSpec(
                    "solo",
                    [(simple_component("a", a), 1), (simple_component("b", b), 1)],
                    registry="BEGIN\na\nb\nEND",
                ),
            ]
        )
        assert res["solo"].by_executable(1)[0] == ("local", None)

    def test_remote_rank_validated(self, grid):
        def a(gmph, mph):
            gmph.send("x", "west", "b", 99, tag=1)

        with pytest.raises(ReproError, match="out of range"):
            grid(pair(a, idle))

    def test_latency_applied_to_cross_site_traffic(self, grid):
        def sender(gmph, mph):
            gmph.send("payload", "west", "b", 0, tag=1)

        def receiver(gmph, mph):
            start = time.monotonic()
            gmph.recv(tag=1)
            return time.monotonic() - start

        res = grid(pair(sender, receiver), latency=0.1)
        assert res["west"].values()[0] >= 0.05

    @pytest.mark.parametrize("roundtrips", [0, 5])
    def test_pingpong_pays_the_link_latency(self, roundtrips, both_backends, backend_machine):
        """E16 (§9(c)): every cross-site hop is one message of the job,
        and the hops pay the link's latency in turn — on either backend."""
        latency = 0.01

        def run(trips, config):
            def east(gmph, mph):
                for i in range(trips):
                    gmph.send(i, "west", "b", 0, tag=1)
                    gmph.recv(tag=2)

            def west(gmph, mph):
                for _ in range(trips):
                    obj, src, _ = gmph.recv(tag=1)
                    gmph.send(obj, src, "a", 0, tag=2)

            start = time.monotonic()
            res = run_grid(pair(east, west), latency, config=config, machine=backend_machine(2))
            return job_messages(res, config), time.monotonic() - start

        for config in both_backends:
            baseline, _ = run(0, config)
            messages, elapsed = run(roundtrips, config)
            assert messages - baseline == 2 * roundtrips
            assert elapsed >= 2 * roundtrips * latency


class TestSessionFailures:
    def test_failure_on_one_cluster_fails_session(self, grid):
        def bad(gmph, mph):
            raise RuntimeError("site outage")

        with pytest.raises(RuntimeError, match="site outage"):
            grid(pair(bad, lambda gmph, mph: True))

    def test_duplicate_cluster_names(self, grid):
        spec = ClusterSpec("same", [(simple_component("x", idle), 1)])
        with pytest.raises(ReproError):
            grid([spec, dataclasses.replace(spec)])

    def test_clusters_have_independent_worlds(self, grid):
        """Each cluster's COMM_WORLD is its own, of its own size."""

        def report(gmph, mph):
            return mph.global_world.size, gmph.world.size

        res = grid(pair(report, report, east_n=4, west_n=1))
        assert set(res["east"].values()) == {(4, 5)}
        assert set(res["west"].values()) == {(1, 5)}


class TestPartialSessions:
    def test_allow_partial_survives_one_cluster_failure(self, both_backends, backend_machine):
        """The dead cluster maps to the exception it died of — its own
        type, across a process boundary too — and the other returns."""

        def bad(gmph, mph):
            raise SiteOutage("site outage")

        for config in both_backends:
            res = run_grid(
                pair(bad, lambda gmph, mph: "fine"),
                config=config,
                machine=backend_machine(2),
                allow_partial=True,
            )
            assert type(res["east"]) is SiteOutage
            assert str(res["east"]) == "site outage"
            assert res["west"].values() == ["fine"]

    def test_allow_partial_still_fails_when_every_cluster_dies(self, grid):
        def bad(gmph, mph):
            raise RuntimeError("total outage")

        with pytest.raises(RuntimeError, match="total outage"):
            grid(pair(bad, bad), allow_partial=True)

    def test_default_remains_all_or_nothing(self, grid):
        def bad(gmph, mph):
            raise RuntimeError("site outage")

        with pytest.raises(RuntimeError, match="site outage"):
            grid(pair(bad, lambda gmph, mph: "fine"))
