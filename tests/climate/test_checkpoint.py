"""Checkpoint/restart: restart chains must be bitwise-exact
(repro.climate.checkpoint)."""

import numpy as np
import pytest

from repro.climate import checkpoint
from repro.climate.ccsm import MODEL_KINDS, CCSMConfig, run_ccsm
from repro.climate.components import OceanModel, SeaIceModel
from repro.climate.grid import LatLonGrid
from repro.errors import ReproError
from repro.mpi import run_spmd

GRID = LatLonGrid(8, 12)


class TestComponentRoundtrip:
    def test_save_restore_same_proc_count(self, tmp_path, spmd):
        def run_and_save(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            for _ in range(3):
                m.step(3600.0)
            checkpoint.save(m, tmp_path, "ocean")
            return m.temperature.gather_global(root=0)

        def restore_and_check(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            steps = checkpoint.restore(m, tmp_path, "ocean")
            return (steps, m.temperature.gather_global(root=0))

        saved = spmd(2, run_and_save)[0]
        steps, restored = spmd(2, restore_and_check)[0]
        assert steps == 3
        np.testing.assert_array_equal(saved, restored)

    def test_restart_across_different_proc_counts(self, tmp_path, spmd):
        """A checkpoint written by 2 processes restarts exactly on 4."""

        def save2(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            m.step(3600.0)
            checkpoint.save(m, tmp_path, "ocean")
            return None

        def continue_on(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            checkpoint.restore(m, tmp_path, "ocean")
            m.step(3600.0)
            return m.temperature.gather_global(root=0)

        def straight(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            m.step(3600.0)
            m.step(3600.0)
            return m.temperature.gather_global(root=0)

        spmd(2, save2)
        chained = spmd(4, continue_on)[0]
        reference = spmd(1, straight)[0]
        np.testing.assert_array_equal(chained, reference)

    def test_budget_accumulators_survive(self, tmp_path, spmd):
        def save(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            for _ in range(4):
                m.step(3600.0)
            checkpoint.save(m, tmp_path, "ocean")
            return m.budget.solar_in

        def load(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            checkpoint.restore(m, tmp_path, "ocean")
            return m.budget.solar_in

        assert spmd(2, save)[0] == spmd(2, load)[0]

    def test_seaice_thickness_roundtrip(self, tmp_path, spmd):
        """The thickness is assembled by global slices: written by 3
        bands, it restores exactly on 2."""

        def save(comm):
            m = SeaIceModel(comm, GRID, SeaIceModel.default_params())
            for _ in range(3):
                m.step(3600.0)
            checkpoint.save(m, tmp_path, "ice")
            return m.mean_thickness()

        def load(comm):
            m = SeaIceModel(comm, GRID, SeaIceModel.default_params())
            checkpoint.restore(m, tmp_path, "ice")
            return m.mean_thickness()

        assert spmd(3, save)[0] == spmd(2, load)[0]


class TestRestoreValidation:
    def test_missing_file(self, tmp_path, spmd):
        def load(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            checkpoint.restore(m, tmp_path, "ghost")

        with pytest.raises(ReproError, match="no checkpoint"):
            spmd(1, load)

    def test_kind_mismatch(self, tmp_path, spmd):
        def save(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            checkpoint.save(m, tmp_path, "state")
            return None

        def load_wrong(comm):
            m = SeaIceModel(comm, GRID, SeaIceModel.default_params())
            checkpoint.restore(m, tmp_path, "state")

        spmd(1, save)
        with pytest.raises(ReproError, match="'ocean' component"):
            spmd(1, load_wrong)

    def test_grid_mismatch(self, tmp_path, spmd):
        def save(comm):
            m = OceanModel(comm, GRID, OceanModel.default_params())
            checkpoint.save(m, tmp_path, "state")
            return None

        def load_wrong(comm):
            m = OceanModel(comm, LatLonGrid(4, 6), OceanModel.default_params())
            checkpoint.restore(m, tmp_path, "state")

        spmd(1, save)
        with pytest.raises(ReproError, match="grid"):
            spmd(1, load_wrong)


class TestCoupledRestart:
    def test_chained_run_matches_straight_run(self, tmp_path):
        """The headline: 3+3 steps with a restart equals 6 straight steps,
        bitwise, through the full coupled system."""
        straight = run_ccsm("scme", CCSMConfig(nsteps=6))

        first = CCSMConfig(nsteps=3, checkpoint_dir=str(tmp_path))
        run_ccsm("scme", first)
        second = CCSMConfig(nsteps=3, restart_dir=str(tmp_path))
        chained = run_ccsm("scme", second)

        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                chained[kind]["final_field"], straight[kind]["final_field"]
            )

    def test_restart_crosses_execution_modes(self, tmp_path):
        """Checkpoint under SCME, restart under MCSE: still exact — the
        state format is mode-independent."""
        straight = run_ccsm("scme", CCSMConfig(nsteps=4))
        run_ccsm("scme", CCSMConfig(nsteps=2, checkpoint_dir=str(tmp_path)))
        chained = run_ccsm("mcse", CCSMConfig(nsteps=2, restart_dir=str(tmp_path)))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                chained[kind]["final_field"], straight[kind]["final_field"]
            )

    def test_steps_counter_continues(self, tmp_path):
        run_ccsm("scme", CCSMConfig(nsteps=2, checkpoint_dir=str(tmp_path)))
        diags = run_ccsm(
            "scme", CCSMConfig(nsteps=1, restart_dir=str(tmp_path), checkpoint_dir=str(tmp_path))
        )
        # Re-saved checkpoint now carries 3 steps.
        with np.load(tmp_path / "ocean.ckpt.npz") as data:
            assert int(data["steps_taken"]) == 3
