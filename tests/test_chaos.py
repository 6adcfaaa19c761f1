"""Chaos suite: randomized fault schedules must always end cleanly.

Every injected fault has to land in one of three acceptable outcomes —
a clean :class:`ProcessFailedError` on the survivors, a successful
revoke/shrink/continue, or a checkpoint-driven restart — with zero hangs
and zero misdiagnosed :class:`DeadlockError`.  Seeding comes from the
schedule-sweep plugin's ``fault_seed`` fixture: seeds 0..4 locally, one
seed per CI job via ``CHAOS_SEED`` or ``--mpi-fault-seed=J``.

Replaying a failure: run the one-line ``PYTHONPATH=src python -m pytest
... --mpi-fault-seed=J`` command the plugin prints in the failure
report.  The schedule is reconstructible via ``random_schedule(seed,
nprocs, ...)``.
"""

import numpy as np
import pytest

from repro.errors import DeadlockError, ProcessFailedError, RevokedError
from repro.mpi import FaultSchedule, SimulatedCrash, WorldConfig, random_schedule, run_spmd


class TestChaosOutcomes:
    def test_unrecovered_crash_is_clean_pfe(self, fault_seed):
        """No recovery attempted: the job must die with a clean
        ProcessFailedError (never a hang, never a DeadlockError)."""
        sched = random_schedule(fault_seed, 6, crashes=1, max_op=20)

        def main(comm):
            for i in range(40):
                comm.send(i, (comm.rank + 1) % comm.size, tag=1)
                comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
            return "done"

        try:
            run_spmd(6, main, config=WorldConfig(fault_schedule=sched), timeout=60.0)
        except ProcessFailedError:
            pass  # the acceptable terminal outcome
        except DeadlockError as exc:  # pragma: no cover - the regression
            pytest.fail(f"dead rank misdiagnosed as deadlock: {exc}")
        assert any(f.startswith("crash") for f in sched.fired())

    def test_revoke_shrink_continue(self, fault_seed):
        """Full recovery: survivors revoke, shrink, and finish a
        collective over the shrunken world."""
        nprocs = 8
        sched = random_schedule(fault_seed, nprocs, crashes=2, max_op=30)
        scheduled_dead = {c["rank"] for c in sched.to_spec()["crashes"]}

        def main(comm):
            try:
                for i in range(40):
                    comm.send(i, (comm.rank + 1) % comm.size, tag=3)
                    comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
            except (ProcessFailedError, RevokedError):
                comm.revoke()
            new = comm.shrink("chaos-survivors")
            return (new.size, new.allreduce(1))

        results = run_spmd(
            nprocs, main, config=WorldConfig(fault_schedule=sched), timeout=60.0
        )
        # A second scheduled crash may never fire (the first one breaks the
        # ring before the victim reaches its op count) — go by who actually
        # died, which is exactly the ranks with no return value.
        dead = {r for r in range(nprocs) if results[r] is None}
        assert dead and dead <= scheduled_dead
        live = nprocs - len(dead)
        for r in range(nprocs):
            if r not in dead:
                assert results[r] == (live, live)

    def test_checkpoint_restart_is_bitwise(self, fault_seed, tmp_path):
        """In-job component crash + checkpoint restore: the recovered run
        must be bitwise identical to an uninterrupted one."""
        from repro.climate.ccsm import CCSMConfig, run_ccsm

        kind = ("ocean", "land", "ice", "atmosphere")[fault_seed % 4]
        step = 2 + fault_seed % 3  # crash somewhere mid-run
        base = dict(nsteps=6, exchange="p2p")
        clean = run_ccsm(
            "scme",
            CCSMConfig(**base, checkpoint_dir=str(tmp_path / "clean"), checkpoint_every=2),
        )
        crashed = run_ccsm(
            "scme",
            CCSMConfig(
                **base,
                checkpoint_dir=str(tmp_path / "crashed"),
                checkpoint_every=2,
                crash_at=(kind, step),
            ),
        )
        for k in ("atmosphere", "ocean", "land", "ice"):
            np.testing.assert_array_equal(
                clean[k]["final_field"], crashed[k]["final_field"]
            )
            assert clean[k]["mean_T"] == crashed[k]["mean_T"]


# --- the MIME degradation demo -----------------------------------------------

ENSEMBLE_REG = """
BEGIN
Multi_Instance_Begin
Run1 0 1
Run2 2 3
Run3 4 5
Run4 6 7
Multi_Instance_End
stats
END
"""

STEPS = 10


def test_ensemble_kills_one_of_four_and_degrades(fault_seed):
    """Kill one of K=4 MIME instances mid-run: the remaining three finish
    and the collector reports the degraded mean over the survivors."""
    victim = fault_seed % 4
    from repro import components_setup, multi_instance
    from repro.core.ensemble import EnsembleCollector, EnsembleMember
    from repro.launcher.job import mph_run

    def run(world, env):
        mph = multi_instance(world, "Run", env=env)
        member = EnsembleMember(mph, "stats")
        scale = float(mph.comp_name()[-1])
        try:
            for step in range(STEPS):
                member.report(step, np.full(4, scale * (step + 1)))
                member.receive_control()
        except ProcessFailedError:
            return "orphaned"  # sibling rank of the dead reporter
        return "done"

    def stats(world, env):
        mph = components_setup(world, "stats", env=env)
        collector = EnsembleCollector.for_prefix(mph, "Run")
        means = []
        for step in range(STEPS):
            summary = collector.collect(step)
            means.append(float(summary.mean[0]))
            collector.broadcast_same_control({})
        return means, list(collector.degraded_instances)

    dead_rank = 2 * victim  # the instance's reporter (local rank 0)
    dead_name = f"Run{victim + 1}"
    sched = FaultSchedule(seed=1).crash_rank(dead_rank, at_op=20)

    result = mph_run(
        [(run, 8), (stats, 1)],
        registry=ENSEMBLE_REG,
        config=WorldConfig(fault_schedule=sched),
        timeout=60.0,
    )
    means, degraded = result.by_executable(1)[0]
    assert degraded == [dead_name]

    # Degraded mean: over all 4 scales early, over the 3 survivors late.
    scales = [s for s in (1.0, 2.0, 3.0, 4.0)]
    full_mean = sum(scales) / 4
    partial_mean = (sum(scales) - (victim + 1)) / 3
    assert means[0] == pytest.approx(full_mean * 1)
    assert means[-1] == pytest.approx(partial_mean * STEPS)

    crashed = [r.rank for r in result.procs if isinstance(r.exception, SimulatedCrash)]
    assert crashed == [dead_rank]
    values = {r.rank: r.value for r in result.procs if r.exception is None}
    assert values[dead_rank + 1] == "orphaned"
    done = [r for r in range(8) if r not in (dead_rank, dead_rank + 1)]
    assert all(values[r] == "done" for r in done)
