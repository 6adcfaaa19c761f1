"""CCSM fault tolerance: in-job checkpoint restart and surface drop.

Two recovery modes, mirroring what an MPH coupled system needs on a
machine where ranks can die:

* **in-job restart** — a component raises mid-step, restores its last
  periodic checkpoint, replays the logged fluxes, and the run finishes
  bitwise identical to an uninterrupted one;
* **degradation** — a whole surface component dies fail-stop and the
  coupler drops it, finishing the run over the survivors.

Implicit coupling drops nobody: a rank that dies inside an iteration
ends the run, with every survivor's diagnostics naming it.
"""

import re
import time

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    ComponentRunner,
    CouplerRunner,
    build_registry,
    run_ccsm,
)
from repro.climate.coupler import FluxCoupler
from repro.climate.grid import LatLonGrid
from repro.errors import ProcessFailedError, ReproError
from repro.mpi import FaultSchedule, WorldConfig

ATM = LatLonGrid(10, 20, "atm")
OCN = LatLonGrid(8, 16, "ocn")
LND = LatLonGrid(5, 10, "lnd")


class TestConfigValidation:
    def test_checkpoint_every_needs_dir(self):
        with pytest.raises(ReproError):
            CCSMConfig(checkpoint_every=2)

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ReproError):
            CCSMConfig(checkpoint_every=-1)

    def test_crash_at_needs_checkpointing(self):
        with pytest.raises(ReproError):
            CCSMConfig(crash_at=("ocean", 3))

    def test_crash_at_needs_p2p_exchange(self, tmp_path):
        with pytest.raises(ReproError):
            CCSMConfig(
                checkpoint_dir=str(tmp_path),
                checkpoint_every=2,
                crash_at=("ocean", 3),
                exchange="join",
            )


class TestCheckpointRestart:
    def _run(self, tmp_path, name, **extra):
        return run_ccsm(
            "scme",
            CCSMConfig(
                nsteps=6,
                exchange="p2p",
                checkpoint_dir=str(tmp_path / name),
                checkpoint_every=2,
                **extra,
            ),
        )

    @pytest.mark.parametrize("victim", ["ocean", "atmosphere", "ice"])
    def test_mid_run_crash_recovers_bitwise(self, tmp_path, victim):
        clean = self._run(tmp_path, "clean")
        crashed = self._run(tmp_path, f"crash-{victim}", crash_at=(victim, 3))
        for kind in ("atmosphere", "ocean", "land", "ice"):
            np.testing.assert_array_equal(
                clean[kind]["final_field"], crashed[kind]["final_field"]
            )
            assert clean[kind]["mean_T"] == crashed[kind]["mean_T"]
            assert clean[kind]["energy"] == crashed[kind]["energy"]

    def test_every_rank_of_the_victim_crashes_once_and_redoes_the_step(
        self, tmp_path, monkeypatch
    ):
        """The injected crash fired — on each rank of the victim, once —
        and the retry found the step's flux still queued: every rank's
        block is its own message from the coupler, so nobody re-sends."""
        recovered = []
        recover = ComponentRunner.recover

        def counting_recover(runner):
            k = recover(runner)
            recovered.append((runner.kind, runner.comm.rank, k))
            return k

        monkeypatch.setattr(ComponentRunner, "recover", counting_recover)
        clean = self._run(tmp_path, "clean")
        assert recovered == []
        crashed = self._run(tmp_path, "crash", crash_at=("atmosphere", 3))
        # Four atmosphere ranks, each restarted from the step-2 checkpoint.
        assert sorted(recovered) == [("atmosphere", rank, 2) for rank in range(4)]
        for kind in ("atmosphere", "ocean", "land", "ice"):
            np.testing.assert_array_equal(
                clean[kind]["final_field"], crashed[kind]["final_field"]
            )
            assert clean[kind]["mean_T"] == crashed[kind]["mean_T"]
        assert clean["coupler"]["exchange_residual"] == crashed["coupler"]["exchange_residual"]

    def test_crash_on_uncheckpointed_step_recovers(self, tmp_path):
        """Crash on a step NOT aligned with checkpoint_every: recovery
        must replay the flux log forward from the last checkpoint."""
        clean = self._run(tmp_path, "clean")
        crashed = self._run(tmp_path, "crash-odd", crash_at=("land", 5))
        for kind in ("atmosphere", "ocean", "land", "ice"):
            assert clean[kind]["mean_T"] == crashed[kind]["mean_T"]

    def test_no_crash_means_no_behavior_change(self, tmp_path):
        """Checkpointing alone must not perturb the physics."""
        plain = run_ccsm("scme", CCSMConfig(nsteps=6, exchange="p2p"))
        ckpt = self._run(tmp_path, "ckpt-only")
        for kind in ("atmosphere", "ocean", "land", "ice"):
            assert plain[kind]["mean_T"] == ckpt[kind]["mean_T"]


class TestDropSurface:
    def _coupler(self):
        return FluxCoupler(ATM, {"ocean": OCN, "land": LND}, {"ocean": 20.0, "land": 15.0})

    def test_drop_removes_the_surface(self):
        c = self._coupler()
        c.drop_surface("land")
        assert sorted(c.surface_grids) == ["ocean"]
        assert sorted(c.coupling_coeff) == ["ocean"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown surface"):
            self._coupler().drop_surface("ice")

    def test_last_surface_cannot_be_dropped(self):
        c = self._coupler()
        c.drop_surface("land")
        with pytest.raises(ReproError):
            c.drop_surface("ocean")


def first_ops_of_steps(cfg):
    """``rank -> [index of the first communicator operation the rank makes
    in step 0, 1, ...]`` of an ``scme`` run of *cfg*, counted from 1 as
    ``FaultSchedule.crash_rank(at_op=)`` counts.

    Read off the protocol, not written down: a fault-free run of the same
    configuration under an empty :class:`FaultSchedule` (whose per-rank
    counter is the one ``at_op`` is compared with), driven through the
    public runners — the publish / couple / receive-and-step loop
    ``run_ccsm`` runs — with every rank noting its counter at the top of
    each step.  A crash scheduled at ``first_ops_of_steps(cfg)[r][k]``
    kills rank *r* in its first operation of step *k*, however many
    operations the handshake, the constructors or a step make.
    """
    sched = FaultSchedule(seed=0)

    def program(kind):
        def run(world, env):
            mph = components_setup(world, cfg.name(kind), env=env)
            comm = mph.proc_in_component(cfg.name(kind))
            if kind == "coupler":
                runner = CouplerRunner(mph, cfg, comm)
            else:
                runner = ComponentRunner(mph, cfg, kind, comm)
            tops = []
            for step in range(cfg.nsteps):
                tops.append(sched.op_count(world.rank) + 1)
                if kind == "coupler":
                    runner.step(step)
                else:
                    runner.publish(step)
                    runner.receive_and_step(step)
            return tops

        return run

    kinds = MODEL_KINDS + ("coupler",)
    result = mph_run(
        [(program(kind), cfg.procs[kind]) for kind in kinds],
        registry=build_registry(cfg, "scme"),
        config=WorldConfig(fault_schedule=sched),
    )
    return dict(enumerate(result.values()))


class TestFailStopDegradation:
    """Ranks die fail-stop in their first operation of step ``CRASH_STEP``
    (scme's block layout: atmosphere on world ranks 0-3, ocean 4-5, land
    6-7, ice 8, coupler 9).  Every test asserts its crashes fired, and
    fired with exchanges still to come — a crash after the last exchange
    leaves nothing for anybody to notice."""

    NSTEPS = 6
    CRASH_STEP = 2

    def _run_with_crashes(self, *ranks):
        """Run with *ranks* dying at the top of ``CRASH_STEP``; returns
        ``(diagnostics or None if the failure surfaced as a clean
        ProcessFailedError, seconds it took)`` once the crashes are
        confirmed."""
        cfg = CCSMConfig(nsteps=self.NSTEPS)
        tops = first_ops_of_steps(cfg)
        sched = FaultSchedule(seed=3)
        for rank in ranks:
            sched.crash_rank(rank, at_op=tops[rank][self.CRASH_STEP])
        t0 = time.monotonic()
        try:
            out = run_ccsm(
                "scme", cfg, config=WorldConfig(fault_schedule=sched), timeout=90.0
            )
        except ProcessFailedError:
            out = None
        elapsed = time.monotonic() - t0
        assert sorted(sched.fired()) == sorted(
            f"crash rank {rank} at op {tops[rank][self.CRASH_STEP]}" for rank in ranks
        )
        for rank in ranks:  # ... and before the rank's last exchange
            assert tops[rank][self.CRASH_STEP] < tops[rank][self.NSTEPS - 1]
        return out, elapsed

    def test_first_ops_follow_the_protocol(self):
        """The helper's numbers are a protocol property: a step of a
        component rank costs the same operations every time."""
        tops = first_ops_of_steps(CCSMConfig(nsteps=4))
        assert sorted(tops) == list(range(10))
        for rank, firsts in tops.items():
            strides = {b - a for a, b in zip(firsts, firsts[1:])}
            assert len(strides) == 1 and strides.pop() > 0, (rank, firsts)
        assert tops[6] == tops[7]  # the two land ranks run the same protocol

    def test_dead_land_component_is_dropped(self):
        """Kill both land ranks mid-run: the coupler drops the land
        surface and the survivors finish with diagnostics tagged
        degraded."""
        out, _ = self._run_with_crashes(6, 7)
        if out is None:
            # Acceptable fallback outcome: a peer stalled on land before
            # the coupler could drop it, and the failure surfaced cleanly.
            return
        assert out["coupler"]["dropped_components"] == ["land"]
        assert "degraded" not in out["atmosphere"] or out["atmosphere"]["degraded"]
        # The other components ran to completion.
        for kind in ("atmosphere", "ocean", "ice", "coupler"):
            assert kind in out

    @pytest.mark.parametrize("victim", [6, 7])
    def test_partially_dead_component_ends_its_survivor_cleanly(self, victim):
        """One of the two land ranks dies.  Each rank talks to the coupler
        itself, so the survivor's sibling is not on its path to the
        coupler any more: the coupler drops land *and tells the
        survivor*, which stops with what it has instead of waiting for a
        flux nobody computes; everyone else runs to the end."""
        out, elapsed = self._run_with_crashes(victim)
        # Told, not timed out: well inside the failure detector's bound
        # (every survivor idle for WorldConfig.deadlock_grace = 1 s).
        assert elapsed < 30.0
        if out is None:
            return  # surfaced as a clean ProcessFailedError
        assert out["coupler"]["dropped_components"] == ["land"]
        assert "dropped from the coupling" in out["land"]["degraded"]
        assert out["land"]["steps"] == self.CRASH_STEP  # stopped where it was told
        # A component that lost a rank cannot settle: its histories end at
        # its last settle, which for a run without checkpoints is none.
        assert len(out["land"]["mean_T"]) == 1
        for kind in ("atmosphere", "ocean", "ice"):
            assert "degraded" not in out[kind]
            assert out[kind]["steps"] == self.NSTEPS
            assert len(out[kind]["mean_T"]) == 1 + self.NSTEPS

    @pytest.mark.parametrize("victim", [0, 2])
    def test_dead_atmosphere_propagates(self, victim):
        """There is nothing left to couple without the atmosphere: the
        coupler drops nobody, and the run ends — every survivor with the
        failure on record — instead of computing on."""
        out, elapsed = self._run_with_crashes(victim)
        assert elapsed < 60.0
        if out is None:
            return
        assert out["coupler"]["dropped_components"] == []
        for kind in ("coupler", "ocean", "land", "ice"):
            assert out[kind]["degraded"]
        for kind in ("ocean", "land", "ice"):  # stalled in the crash step
            assert out[kind]["steps"] == self.CRASH_STEP
            assert len(out[kind]["mean_T"]) == 1 + self.CRASH_STEP
        assert out["atmosphere"]["steps"] == self.CRASH_STEP


class TestImplicitFailStop:
    """A rank dies fail-stop inside an implicit coupling step, between
    two rounds of the iterate-to-convergence exchange.  The implicit
    coupler drops nobody: an iteration cannot converge without every
    surface, so the run ends — fast, with the dead rank named on every
    survivor — instead of hanging on a trial flux nobody computes."""

    NSTEPS = 5
    CRASH_STEP = 2
    VICTIM = 6  # the first land rank (scme block layout)

    def test_crash_mid_iterate_ends_every_survivor_degraded(self, fault_seed):
        cfg = CCSMConfig(nsteps=self.NSTEPS, coupling="implicit")
        tops = first_ops_of_steps(cfg)
        # Past the step's first operation, at a point the fault_seed sweep
        # moves (CI's chaos matrix pins one per leg); every offset lands
        # inside the step, before the rank's next one.
        at_op = tops[self.VICTIM][self.CRASH_STEP] + 1 + 2 * fault_seed
        assert at_op < tops[self.VICTIM][self.CRASH_STEP + 1]
        sched = FaultSchedule(seed=3).crash_rank(self.VICTIM, at_op=at_op)
        t0 = time.monotonic()
        out = run_ccsm(
            "scme", cfg, config=WorldConfig(fault_schedule=sched), timeout=90.0
        )
        elapsed = time.monotonic() - t0
        assert sched.fired() == [f"crash rank {self.VICTIM} at op {at_op}"]
        assert elapsed < 30.0
        # Components stall in the step, blocked on the dead rank; the
        # coupler fails its next send to it or receive from it.
        for kind in MODEL_KINDS:
            assert f"world rank(s) [{self.VICTIM}] died" in out[kind]["degraded"]
            assert out[kind]["steps"] == self.CRASH_STEP, kind
            # Every component with all its ranks settles at the end; land,
            # short a rank, ends at its last settle (none in this run).
            settled = 0 if kind == "land" else self.CRASH_STEP
            assert len(out[kind]["mean_T"]) == 1 + settled, kind
        assert re.match(
            rf"(receive from|delivery to) failed world rank {self.VICTIM}\b",
            out["coupler"]["degraded"],
        )
        assert len(out["coupler"]["coupling_iterations"]) == self.CRASH_STEP
