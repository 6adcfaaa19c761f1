"""Baselines: the pre-MPH approaches, and the comparisons the paper draws
(experiments E10 and E12)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro import components_setup, mph_run, multi_instance
from repro.baselines.file_coupling import run_file_coupled
from repro.baselines.independent_jobs import (
    perturbed_params,
    postprocess,
    run_independent_ensemble,
    run_one_member,
)
from repro.baselines.pcm_monolithic import StaticAllocation, hardwired_ranges, run_pcm_monolithic
from repro.climate.ccsm import MODEL_KINDS, CCSMConfig, run_ccsm
from repro.climate.components import OceanModel
from repro.climate.grid import LatLonGrid
from repro.core.ensemble import EnsembleCollector, EnsembleMember
from repro.errors import ReproError
from repro.mpi import World

FAST_CFG = CCSMConfig(nsteps=2)


def run_mime_ensemble(k: int, grid: LatLonGrid, nsteps: int, dt: float) -> list[float]:
    """The §2.5 MIME campaign: k one-process instances and a statistics
    executable in one job.  Returns the per-step median across members of
    the area-weighted global mean, computed on the fly from what the
    members report; nothing is written."""
    lines = "\n".join(f"Member{i + 1} {i} {i} albedo={0.1 + 0.02 * i:.2f}" for i in range(k))
    registry = f"BEGIN\nMulti_Instance_Begin\n{lines}\nMulti_Instance_End\nstats\nEND"

    def member(world, env):
        mph = multi_instance(world, "Member", env=env)
        params = replace(OceanModel.default_params(), albedo=mph.get_argument("albedo", float))
        model = OceanModel(mph.component_comm(), grid, params)
        reporter = EnsembleMember(mph, "stats")
        for step in range(nsteps):
            model.step(dt)
            reporter.report(step, model.temperature.data)

    def stats(world, env):
        mph = components_setup(world, "stats", env=env)
        collector = EnsembleCollector.for_prefix(mph, "Member")
        w = grid.area_weights
        medians = []
        for step in range(nsteps):
            fields = collector.collect(step).fields.values()
            # Summed in DistributedField.area_mean's order, so the
            # baseline's member means compare bitwise.
            medians.append(float(np.median([(f * w).sum(axis=1).sum() for f in fields])))
        return medians

    return mph_run([(member, k), (stats, 1)], registry=registry).by_executable(1)[0]


def _scaled_config(scale: int) -> CCSMConfig:
    """One step on grids ``scale`` times the small ones in each direction."""
    return CCSMConfig(
        nsteps=1,
        shapes={
            "atmosphere": (8 * scale, 16 * scale),
            "ocean": (6 * scale, 12 * scale),
            "land": (4 * scale, 8 * scale),
            "ice": (4 * scale, 4 * scale),
        },
    )


class TestPcmMonolithic:
    @pytest.fixture(scope="class")
    def mono(self):
        return run_pcm_monolithic(FAST_CFG)

    def test_same_physics_as_mph(self, mono):
        """E12 control: the hardwired build and MPH MCSE agree bitwise —
        MPH adds flexibility, not different numbers."""
        mph = run_ccsm("mcse", FAST_CFG)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(mono[kind]["final_field"], mph[kind]["final_field"])

    @pytest.mark.parametrize(
        "cfg, all_bytes, own_bytes",
        [(FAST_CFG, 36_288, 1_728)]
        + [(_scaled_config(s), 9_024 * s * s, 384 * s * s) for s in (1, 2, 4)],
        ids=["default", "scale1", "scale2", "scale4"],
    )
    def test_static_allocation_waste(self, cfg, all_bytes, own_bytes):
        """E12: every process of the monolithic build carries every
        module's statics — three float64 full-grid arrays, 24 B a point,
        with the coupler's on the atmosphere grid:
        24 B x (2|atm| + |ocn| + |lnd| + |ice|).  An MPH build holds only
        its own component's, so the worst process is the one whose own
        grid is smallest: 21.0x at the default shapes, 23.5x at every
        scale of the small ones."""
        points = {kind: int(np.prod(cfg.shapes[kind])) for kind in MODEL_KINDS}
        assert all_bytes == 24 * (points["atmosphere"] + sum(points.values()))
        assert own_bytes == 24 * min(points.values())
        mem: StaticAllocation = run_pcm_monolithic(cfg)["memory"]
        assert (mem.all_modules_bytes, mem.own_component_bytes) == (all_bytes, own_bytes)

    def test_hardwired_ranges_are_contiguous(self):
        ranges = hardwired_ranges(CCSMConfig())
        bounds = sorted(ranges.values())
        for (lo1, hi1), (lo2, _) in zip(bounds, bounds[1:]):
            assert lo2 == hi1 + 1

    def test_exchange_residual_roundoff(self, mono):
        assert mono["coupler"]["max_exchange_residual"] < 1e-10


class TestIndependentJobs:
    GRID = LatLonGrid(4, 8)
    NSTEPS = 10

    def test_members_perturbed_distinctly(self):
        p0, p1 = perturbed_params(0), perturbed_params(1)
        assert p0.albedo != p1.albedo

    def test_campaign_writes_files(self, tmp_path):
        report = run_independent_ensemble(3, self.GRID, 4, 3600.0, tmp_path)
        assert report.files_written == 12
        assert report.bytes_written > 0
        assert len(list(tmp_path.glob("*.npy"))) == 12

    def test_postprocess_statistics(self, tmp_path):
        report = run_independent_ensemble(3, self.GRID, 3, 3600.0, tmp_path)
        assert len(report.mean_series) == 3
        assert np.all(report.spread_series >= 0)
        # median lies within the spread envelope
        assert np.all(report.median_series <= report.mean_series + report.spread_series)

    def test_postprocess_fails_on_missing_file(self, tmp_path):
        run_independent_ensemble(2, self.GRID, 2, 3600.0, tmp_path)
        victim = next(iter(tmp_path.glob("*.npy")))
        victim.unlink()
        with pytest.raises(ReproError, match="missing sample"):
            postprocess(tmp_path, 2, 2)

    def test_member_without_outdir_writes_nothing(self):
        files, nbytes, means = run_one_member(0, self.GRID, 3, 3600.0, outdir=None)
        assert files == 0 and nbytes == 0 and len(means) == 3

    def test_sampling_interval(self, tmp_path):
        report = run_independent_ensemble(2, self.GRID, 6, 3600.0, tmp_path, sample_every=3)
        assert report.files_written == 4  # steps 0 and 3, two members

    def test_zero_members_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            run_independent_ensemble(0, self.GRID, 2, 3600.0, tmp_path)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_e10_mime_needs_zero_files(self, k, tmp_path, monkeypatch):
        """E10 (§2.5): a MIME ensemble is one job and writes nothing; the
        independent-jobs baseline starts k jobs and writes every sample."""
        worlds = []
        init = World.__init__

        def counting_init(world, *args, **kwargs):
            worlds.append(world)
            init(world, *args, **kwargs)

        monkeypatch.setattr(World, "__init__", counting_init)
        mime_dir, jobs_dir = tmp_path / "mime", tmp_path / "jobs"
        mime_dir.mkdir()
        monkeypatch.chdir(mime_dir)

        medians = run_mime_ensemble(k, self.GRID, self.NSTEPS, 3600.0)
        assert len(medians) == self.NSTEPS  # a nonlinear statistic every step
        assert len(worlds) == 1
        assert list(mime_dir.iterdir()) == []

        worlds.clear()
        report = run_independent_ensemble(k, self.GRID, self.NSTEPS, 3600.0, jobs_dir)
        assert len(worlds) == k
        assert report.files_written == k * self.NSTEPS
        assert len(list(jobs_dir.glob("*.npy"))) == k * self.NSTEPS
        assert report.bytes_written > 0

    def test_mime_and_baseline_statistics_agree(self):
        """Same member physics -> the two campaigns' ensemble medians
        agree (the baseline just pays files for them)."""
        k = 4
        medians = run_mime_ensemble(k, self.GRID, self.NSTEPS, 3600.0)
        baseline = np.array(
            [run_one_member(i, self.GRID, self.NSTEPS, 3600.0, outdir=None)[2] for i in range(k)]
        )
        np.testing.assert_allclose(medians, np.median(baseline, axis=0), rtol=0, atol=1e-9)


class TestFileCoupling:
    def test_coupled_run_completes(self, tmp_path):
        report = run_file_coupled(LatLonGrid(4, 8), 3, 3600.0, tmp_path)
        assert report.nsteps == 3
        assert report.files_written == 6
        assert len(report.atm_mean_T) == 3

    def test_exchange_cost_measured(self, tmp_path):
        report = run_file_coupled(LatLonGrid(4, 8), 2, 3600.0, tmp_path)
        assert report.atm_exchange_seconds > 0
        assert report.ocn_exchange_seconds > 0

    def test_fluxes_antisymmetric(self, tmp_path):
        """With equal grids and the same coefficient the two sides drift
        toward each other."""
        report = run_file_coupled(LatLonGrid(4, 8), 8, 3600.0, tmp_path, coupling_coeff=50.0)
        gap_first = abs(report.atm_mean_T[0] - report.ocn_mean_T[0])
        gap_last = abs(report.atm_mean_T[-1] - report.ocn_mean_T[-1])
        assert gap_last <= gap_first + 1.0  # no runaway divergence

    def test_poll_times_out_on_missing_file(self, tmp_path):
        from repro.baselines.file_coupling import _poll_read

        with pytest.raises(ReproError, match="timed out"):
            _poll_read(tmp_path / "never_appears.npy", timeout=0.05, interval=0.005)

    def test_poll_knobs_validated(self, tmp_path):
        from repro.baselines.file_coupling import _poll_read

        with pytest.raises(ReproError, match="timeout"):
            _poll_read(tmp_path / "x.npy", timeout=0.0)
        with pytest.raises(ReproError, match="interval"):
            _poll_read(tmp_path / "x.npy", interval=-1.0)

    def test_poll_knobs_plumbed_through_run(self, tmp_path):
        """A generous custom interval/timeout pair still completes."""
        report = run_file_coupled(
            LatLonGrid(4, 8), 2, 3600.0, tmp_path, poll_interval=0.001, poll_timeout=5.0
        )
        assert report.nsteps == 2

    def test_corrupt_partner_file_is_clean_error(self, tmp_path):
        """A file that exists but will not parse (writer died mid-write)
        must surface as a ReproError naming the file, not a raw
        numpy/pickle traceback."""
        from repro.baselines.file_coupling import _poll_read

        bad = tmp_path / "ocn_00000.npy"
        bad.write_bytes(b"\x93NUMPY garbage that is not a valid header")
        with pytest.raises(ReproError, match="truncated or corrupt") as info:
            _poll_read(bad, timeout=0.05, interval=0.005)
        assert info.value.__cause__ is not None

    def test_truncated_file_replaced_mid_poll_recovers(self, tmp_path):
        """Polling keeps retrying a corrupt file: once the writer replaces
        it with a valid one, the read succeeds."""
        import threading

        from repro.baselines.file_coupling import _poll_read, _write_atomic

        path = tmp_path / "atm_00000.npy"
        path.write_bytes(b"partial")
        good = np.arange(6.0)

        def fix():
            time.sleep(0.05)
            _write_atomic(path, good)

        t = threading.Thread(target=fix)
        t.start()
        try:
            got = _poll_read(path, timeout=5.0, interval=0.005)
        finally:
            t.join()
        np.testing.assert_array_equal(got, good)
