"""The schedule-exploration harness itself (repro.mpi.sched).

The acceptance-criteria tests live here: same seed → identical canonical
trace across consecutive runs, a planted ANY_SOURCE race is detected
within ten seeds, and the repro command the plugin prints really replays
the recorded trace — the seed is the whole replay.
"""

import json
import re
import shlex

import pytest

from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MatchSchedule,
    WorldConfig,
    explore,
    repro_command,
    run_spmd,
)

def fan_in(comm):
    """The canonical planted race: N-1 senders, one wildcard receiver.
    Which sender is received first is schedule-chosen."""
    if comm.rank != 0:
        comm.send(comm.rank, 0, tag=5)
    comm.barrier()
    if comm.rank == 0:
        return [comm.recv(source=ANY_SOURCE, tag=5) for _ in range(comm.size - 1)]
    return None


def synced_fan_in(comm):
    """fan_in with the sends barrier-fenced before the receives: the
    candidate set at every receive is the full sender set, so the whole
    run is a pure function of the seed."""
    if comm.rank != 0:
        comm.send(comm.rank * 10, 0, tag=9)
    comm.barrier()
    if comm.rank == 0:
        got = [comm.recv(source=ANY_SOURCE, tag=9) for _ in range(comm.size - 1)]
        comm.barrier()
        return got
    comm.barrier()
    return None


def _run_armed(fn, nprocs, schedule, **kw):
    values = run_spmd(
        nprocs, fn, config=WorldConfig(match_schedule=schedule), **kw
    )
    return values, schedule.trace()


class TestReproducibility:
    def test_same_seed_same_trace_three_runs(self):
        """Acceptance criterion: one seed, three consecutive runs, three
        identical canonical traces and results."""
        runs = [_run_armed(synced_fan_in, 4, MatchSchedule(seed=3)) for _ in range(3)]
        values0, trace0 = runs[0]
        assert len(trace0.events) > 0
        for values, trace in runs[1:]:
            assert values == values0
            assert trace.canonical() == trace0.canonical()
            assert trace.digest() == trace0.digest()

    def test_reset_replays_identically(self):
        """One schedule object, reset between runs, behaves like a fresh
        one — per-run counters fully clear."""
        sched = MatchSchedule(seed=11)
        values1, trace1 = _run_armed(synced_fan_in, 3, sched)
        sched.reset()
        values2, trace2 = _run_armed(synced_fan_in, 3, sched)
        assert values1 == values2
        assert trace1.canonical() == trace2.canonical()

    def test_seeds_differ_somewhere(self):
        """Across a modest seed range the wildcard order does vary —
        the permutation hook is live, not decorative."""
        digests = set()
        for seed in range(8):
            _, trace = _run_armed(synced_fan_in, 4, MatchSchedule(seed=seed))
            digests.add(trace.digest())
        assert len(digests) > 1

    def test_disarmed_config_unchanged(self):
        """match_schedule=None is the seed-repo behavior: plain FIFO
        results, no trace machinery involved."""
        plain = run_spmd(3, synced_fan_in)
        assert plain[0] == [10, 20]


class TestRaceDetection:
    def test_planted_any_source_race_found_within_10_seeds(self):
        """Acceptance criterion: explore() flags the fan-in race with at
        most ten seeds."""
        report = explore(fan_in, 3, seeds=10, timeout=30.0)
        assert report.divergent, report.summary()
        first, second = report.witnesses()
        assert first.digest != second.digest

    def test_schedule_independent_program_never_diverges(self):
        def specific(comm):
            if comm.rank != 0:
                comm.send(comm.rank, 0, tag=2)
                return None
            return [comm.recv(source=s, tag=2) for s in range(1, comm.size)]

        report = explore(specific, 3, seeds=6, timeout=30.0)
        assert not report.divergent, report.summary()

    def test_error_outcomes_count_as_divergence(self):
        """A seed that turns a passing run into a raising one is a
        schedule dependence too."""

        def fragile(comm):
            if comm.rank != 0:
                comm.send(comm.rank, 0, tag=1)
            comm.barrier()  # both messages in flight before the recvs
            if comm.rank != 0:
                return None
            first = comm.recv(source=ANY_SOURCE, tag=1)
            comm.recv(source=ANY_SOURCE, tag=1)
            if first != 1:
                raise RuntimeError("received out of rank order")
            return first

        report = explore(fragile, 3, seeds=10, timeout=30.0)
        assert report.divergent, report.summary()
        assert any(not o.ok for o in report.outcomes)
        assert any(o.ok for o in report.outcomes)


class TestReplay:
    def test_schedule_spec_round_trip(self):
        """A dumped schedule spec rebuilds the schedule, and the rebuilt
        schedule makes the same decisions."""
        sched = MatchSchedule(seed=7, hold_prob=0.5, hold_max=3)
        spec = sched.to_spec()
        rebuilt = MatchSchedule(**json.loads(json.dumps(spec)))
        assert rebuilt.to_spec() == spec
        _, trace1 = _run_armed(synced_fan_in, 4, sched)
        _, trace2 = _run_armed(synced_fan_in, 4, rebuilt)
        assert trace2.canonical() == trace1.canonical()

    def test_trace_spec_round_trip(self):
        """The trace spec a failing run dumps is JSON and keeps every
        recorded decision."""
        _, trace = _run_armed(synced_fan_in, 3, MatchSchedule(seed=1))
        events = json.loads(json.dumps(trace.to_spec()))["events"]
        assert len(events) == len(trace) > 0
        assert [(k, r, c) for k, r, _, _, c in events] == [
            (e.kind, e.rank, e.chosen) for e in trace
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(TypeError, match="policy"):
            MatchSchedule(0, policy="fifo")
        with pytest.raises(ValueError, match="hold_prob"):
            MatchSchedule(0, hold_prob=1.5)
        with pytest.raises(ValueError, match="hold_max"):
            MatchSchedule(0, hold_max=-1)


class TestReproCommand:
    def test_round_trip(self):
        cmd = repro_command(
            "tests/mpi/test_sched.py::TestReproCommand::test_round_trip",
            match_seed=3, fault_seed=1,
        )
        tokens = shlex.split(cmd)
        assert tokens[:4] == ["PYTHONPATH=src", "python", "-m", "pytest"]
        assert tokens[4].endswith("::test_round_trip")
        assert tokens[5:] == ["--mpi-match-seed=3", "--mpi-fault-seed=1"]

    def test_printed_command_replays_the_trace(self):
        """Take the command the plugin would print, read the seed back
        out of it, rerun — the canonical trace must be identical to the
        failing run's."""
        failing_seed = 6
        _, trace1 = _run_armed(synced_fan_in, 4, MatchSchedule(failing_seed))
        cmd = repro_command("tests/x.py::t", match_seed=failing_seed)
        parsed_seed = int(re.search(r"--mpi-match-seed=(\d+)", cmd).group(1))
        _, trace2 = _run_armed(synced_fan_in, 4, MatchSchedule(parsed_seed))
        assert trace2.canonical() == trace1.canonical()


class TestHoldSemantics:
    def test_non_overtaking_survives_holds(self, match_seed):
        """Per-(source, tag) FIFO is structural: no seed's holds may
        reorder one sender's stream."""

        def main(comm):
            if comm.rank == 0:
                for i in range(12):
                    comm.send(i, 1, tag=4)
                return None
            return [comm.recv(source=0, tag=4) for _ in range(12)]

        values = run_spmd(
            2, main,
            config=WorldConfig(match_schedule=MatchSchedule(match_seed, hold_prob=0.9)),
        )
        assert values[1] == list(range(12))

    def test_blocking_recv_reveals_held_messages(self, match_seed):
        """Liveness: a blocking receive must see a held envelope — holds
        model delay, never loss."""

        def main(comm):
            if comm.rank == 0:
                comm.send("payload", 1, tag=8)
                return None
            return comm.recv(source=0, tag=8)

        values = run_spmd(
            2, main,
            config=WorldConfig(
                match_schedule=MatchSchedule(match_seed, hold_prob=1.0, hold_max=2)
            ),
            timeout=15.0,
        )
        assert values[1] == "payload"

    def test_blocking_probe_reveals_held_messages(self, match_seed):
        def main(comm):
            if comm.rank == 0:
                comm.send("probe-me", 1, tag=6)
                return None
            st = comm.probe(source=ANY_SOURCE, tag=ANY_TAG)
            return comm.recv(source=st.source, tag=st.tag)

        values = run_spmd(
            2, main,
            config=WorldConfig(
                match_schedule=MatchSchedule(match_seed, hold_prob=1.0, hold_max=2)
            ),
            timeout=15.0,
        )
        assert values[1] == "probe-me"


class TestWaitChoice:
    def test_waitany_choice_recorded_and_varies(self):
        """With several complete requests, waitany's pick is the
        schedule's; across seeds both orders appear."""

        def main(comm):
            from repro.mpi.request import Request

            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2)]
                comm.barrier()  # both sends have landed: both complete
                idx, value = Request.waitany(reqs)
                Request.waitall(reqs)
                return (idx, value)
            comm.send("a", 0, tag=1)
            comm.send("b", 0, tag=2)
            comm.barrier()
            return None

        picks = set()
        for seed in range(8):
            values, trace = _run_armed(main, 2, MatchSchedule(seed, hold_prob=0.0))
            picks.add(values[0])
            assert values[0] in ((0, "a"), (1, "b"))
        assert len(picks) == 2, picks


class TestEnsembleScheduleIndependence:
    def test_mime_collector_identical_across_seeds(self):
        """Paper mapping: MIME ensemble collection addresses every
        member by name (specific source), so the collected statistics
        are schedule-independent — diverging here would be an MPH bug."""
        import numpy as np

        from repro import components_setup, multi_instance
        from repro.core.ensemble import EnsembleCollector, EnsembleMember
        from repro.launcher.job import mph_run

        registry = (
            "BEGIN\nMulti_Instance_Begin\nRun1 0 0\nRun2 1 1\nRun3 2 2\n"
            "Multi_Instance_End\nstats\nEND"
        )

        def run(world, env):
            mph = multi_instance(world, "Run", env=env)
            member = EnsembleMember(mph, "stats")
            scale = float(mph.comp_name()[-1])
            for step in range(3):
                member.report(step, np.full(2, scale * (step + 1)))
                member.receive_control()
            return "done"

        def stats(world, env):
            mph = components_setup(world, "stats", env=env)
            collector = EnsembleCollector.for_prefix(mph, "Run")
            means = []
            for step in range(3):
                summary = collector.collect(step)
                means.append(float(summary.mean[0]))
                collector.broadcast_same_control({})
            return means

        outcomes = set()
        for seed in (0, 3, 5):
            result = mph_run(
                [(run, 3), (stats, 1)],
                registry=registry,
                config=WorldConfig(match_schedule=MatchSchedule(seed)),
                timeout=30.0,
            )
            outcomes.add(tuple(result.by_executable(1)[0]))
        assert len(outcomes) == 1
        assert outcomes.pop() == (2.0, 4.0, 6.0)
