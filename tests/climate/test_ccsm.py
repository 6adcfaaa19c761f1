"""E11: the assembled coupled system — identical physics in every mode,
conservation, and both exchange transports."""

import re

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.climate import ccsm
from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    ComponentRunner,
    CouplerRunner,
    build_executables,
    build_registry,
    run_ccsm,
    total_energy_series,
)
from repro.climate.components import PhysicsParams
from repro.climate.diagnostics import energy_report
from repro.climate.forcing import SeasonalForcing
from repro.errors import ReproError

FAST = dict(nsteps=3)


@pytest.fixture(scope="module")
def scme_reference():
    """One SCME run shared by the equivalence tests."""
    return run_ccsm("scme", CCSMConfig(**FAST))


class TestBasicRun:
    def test_all_components_report(self, scme_reference):
        assert set(scme_reference) == set(MODEL_KINDS) | {"coupler"}

    def test_histories_have_initial_state(self, scme_reference):
        for kind in MODEL_KINDS:
            assert len(scme_reference[kind]["mean_T"]) == FAST["nsteps"] + 1

    def test_final_fields_present(self, scme_reference):
        for kind in MODEL_KINDS:
            shape = CCSMConfig().shapes[kind]
            assert scme_reference[kind]["final_field"].shape == shape

    def test_temperatures_physical(self, scme_reference):
        for kind in MODEL_KINDS:
            series = np.array(scme_reference[kind]["mean_T"])
            assert np.all(series > 150.0) and np.all(series < 350.0)

    def test_exchange_residual_roundoff(self, scme_reference):
        assert scme_reference["coupler"]["max_exchange_residual"] < 1e-10

    def test_ice_thickness_tracked(self, scme_reference):
        assert len(scme_reference["ice"]["mean_thickness"]) == FAST["nsteps"] + 1


class TestModeEquivalence:
    @pytest.mark.parametrize("mode", ["mcse", "mcme"])
    def test_identical_physics(self, scme_reference, mode):
        diags = run_ccsm(mode, CCSMConfig(**FAST))
        assert diags["coupler"]["max_exchange_residual"] < 1e-10
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )
            assert diags[kind]["mean_T"] == scme_reference[kind]["mean_T"]

    def test_overlap_mode_identical(self, scme_reference):
        cfg = CCSMConfig(**FAST)
        cfg = CCSMConfig(nsteps=FAST["nsteps"], procs=dict(cfg.procs, land=cfg.procs["atmosphere"]))
        diags = run_ccsm("mcme_overlap", cfg)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_join_exchange_identical(self, scme_reference):
        diags = run_ccsm("scme", CCSMConfig(nsteps=FAST["nsteps"], exchange="join"))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_different_proc_counts_identical(self, scme_reference):
        """Decomposition independence: more processes, same bits."""
        cfg = CCSMConfig(
            nsteps=FAST["nsteps"],
            procs={"atmosphere": 8, "ocean": 4, "land": 4, "ice": 2, "coupler": 1},
        )
        diags = run_ccsm("scme", cfg)
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )

    def test_serial_mode_on_multiproc_coupler_unchanged(self, scme_reference):
        """A multi-process coupler computes on its local processor 0 only:
        bitwise the answer of a 1-process coupler."""
        base = CCSMConfig(**FAST)
        diags = run_ccsm("scme", CCSMConfig(**FAST, procs=dict(base.procs, coupler=3)))
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                diags[kind]["final_field"], scme_reference[kind]["final_field"]
            )


class TestConservation:
    def test_closed_system_conserves_energy(self):
        diags = run_ccsm("scme", CCSMConfig.conservation(nsteps=6))
        energy = total_energy_series(diags)
        drift = abs(energy[-1] - energy[0]) / abs(energy[0])
        assert drift < 1e-12

    def test_closed_system_conserves_energy_under_seasonal_forcing(self):
        """The "no sun" of the closed system holds with a seasonal cycle too: a zero solar
        constant switches the forcing's insolation off."""
        diags = run_ccsm("scme", CCSMConfig.conservation(nsteps=6, forcing=SeasonalForcing()))
        energy = total_energy_series(diags)
        drift = abs(energy[-1] - energy[0]) / abs(energy[0])
        assert drift < 1e-12

    def test_energy_report_closes(self):
        diags = run_ccsm("scme", CCSMConfig(nsteps=4))
        report = energy_report(diags)
        assert report.relative_unexplained() < 1e-10
        assert report.coupler_residual < 1e-10

    def test_budget_terms_signs(self):
        diags = run_ccsm("scme", CCSMConfig(nsteps=4))
        report = energy_report(diags)
        assert report.solar_in > 0
        assert report.olr_out > 0


class TestScseStandalone:
    def test_standalone_atmosphere_runs(self):
        diags = run_ccsm("scse", CCSMConfig(nsteps=3))
        assert set(diags) == {"atmosphere"}
        assert len(diags["atmosphere"]["mean_T"]) == 4

    def test_standalone_has_zero_coupling(self):
        diags = run_ccsm("scse", CCSMConfig(nsteps=3))
        assert diags["atmosphere"]["budget"]["coupling_in"] == 0.0


class TestBuilders:
    def test_registry_modes(self):
        cfg = CCSMConfig()
        for mode in ("scse", "scme", "mcse", "mcme"):
            reg = build_registry(cfg, mode)
            assert reg.total_components >= 1

    def test_executable_counts(self):
        cfg = CCSMConfig()
        assert len(build_executables(cfg, "scme")) == 5
        assert len(build_executables(cfg, "mcse")) == 1
        assert len(build_executables(cfg, "mcme")) == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError, match="unknown mode"):
            build_registry(CCSMConfig(), "hybrid")
        with pytest.raises(ReproError, match="unknown mode"):
            build_executables(CCSMConfig(), "hybrid")

    def test_overlap_requires_equal_procs(self):
        with pytest.raises(ReproError, match="procs"):
            build_registry(CCSMConfig(), "mcme_overlap")

    def test_bad_exchange_rejected(self):
        with pytest.raises(ReproError, match="exchange"):
            CCSMConfig(exchange="smoke-signals")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(nsteps=-1),
            dict(dt=-3600.0),
            dict(dt=0.0),
            dict(dt=float("nan")),
            dict(dt=float("inf")),
        ],
        ids=["negative_nsteps", "negative_dt", "zero_dt", "nan_dt", "inf_dt"],
    )
    def test_bad_step_rejected(self, bad):
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(nsteps=2.5),
            dict(nsteps=True),
            dict(nsteps="8"),
            dict(coupling_coeff={"ocean": float("nan"), "land": 10.0, "ice": 5.0}),
            dict(coupling_coeff={"ocean": 15.0, "land": float("inf"), "ice": 5.0}),
            dict(coupling_coeff={"ocean": 15.0, "land": 10.0, "ice": float("-inf")}),
        ],
        ids=["fractional_nsteps", "bool_nsteps", "str_nsteps", "nan_coeff", "inf_coeff", "neg_inf_coeff"],
    )
    def test_unrunnable_config_rejected(self, bad):
        """A run that could only die in ``range()`` on every rank, or
        complete with NaN energy everywhere, is refused up front."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)

    @pytest.mark.parametrize(
        "name, drop, add",
        [
            ("shapes", "ice", None),
            ("coupling_coeff", "ice", None),
            ("procs", "coupler", None),
            ("names", "coupler", None),
            ("coupling_coeff", None, "sea"),
            ("shapes", None, "coupler"),
        ],
        ids=[
            "shapes_without_ice",
            "coeff_without_ice",
            "procs_without_coupler",
            "names_without_coupler",
            "coeff_unknown_kind",
            "shapes_of_the_coupler",
        ],
    )
    def test_kind_dicts_must_cover_their_kinds(self, name, drop, add):
        """A per-kind dict that misses a kind would die mid-run with a bare
        KeyError; one with an unknown kind would be ignored silently."""
        given = dict(getattr(CCSMConfig(), name))
        if drop is not None:
            del given[drop]
        if add is not None:
            given[add] = given[next(iter(given))]
        with pytest.raises(ReproError, match=rf"{name} must cover exactly"):
            CCSMConfig(**{name: given})

    @pytest.mark.parametrize(
        "bad",
        [
            dict(shapes={"atmosphere": (0, 32), "ocean": (12, 24), "land": (8, 16), "ice": (6, 12)}),
            dict(shapes={"atmosphere": (16, 32), "ocean": (12, -1), "land": (8, 16), "ice": (6, 12)}),
            dict(checkpoint_every=1.5),
            dict(max_coupling_iterations=2.5),
        ],
        ids=["zero_lat", "negative_lon", "fractional_checkpoint_every", "fractional_iterations"],
    )
    def test_unbuildable_grid_or_count_rejected(self, bad, tmp_path):
        """An empty grid or a fractional step count is refused at
        construction, not discovered inside a rank (the checkpoint
        directory is there so a periodic save is otherwise legal)."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(checkpoint_dir=str(tmp_path), **bad)


    @pytest.mark.parametrize(
        "bad",
        [
            dict(procs={"atmosphere": 1.5, "ocean": 2, "land": 2, "ice": 1, "coupler": 1}),
            dict(procs={"atmosphere": True, "ocean": 2, "land": 2, "ice": 1, "coupler": 1}),
            dict(procs={"atmosphere": 4, "ocean": 0, "land": 2, "ice": 1, "coupler": 1}),
            dict(subcycle={"ocean": 1.5}),
            dict(subcycle={"ocean": True}),
        ],
        ids=["fractional_procs", "bool_procs", "zero_procs", "fractional_subcycle", "bool_subcycle"],
    )
    def test_bad_process_or_substep_count_rejected(self, bad):
        """A process count or sub-cycle count that is not an int >= 1 is
        refused at construction: a fractional count used to raise an
        untyped TypeError inside the launch or a rank, zero processes
        failed only at run time, and ``True`` ran as 1."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(shapes={"atmosphere": (16, 32), "ocean": (12, 24), "land": (8, 16), "ice": (16,)}),
            dict(shapes={"atmosphere": (16, 32, 2), "ocean": (12, 24), "land": (8, 16), "ice": (6, 12)}),
            dict(dt="3600"),
            dict(dt=True),
            dict(coupling_tol="1e-9"),
            dict(coupling_omega=True),
            dict(procs={"atmosphere": 4, "ocean": 2, "land": 2, "ice": 8, "coupler": 1}),
            dict(params={"oceanx": PhysicsParams()}),
            dict(params={"ocean": PhysicsParams(heat_capacity=-1.0)}),
            dict(params={"land": PhysicsParams(olr_b=float("nan"))}),
            dict(params={"ice": {"heat_capacity": 5.0e7}}),
        ],
        ids=[
            "1d_shape", "3d_shape", "str_dt", "bool_dt", "str_tol", "bool_omega",
            "procs_over_rows", "params_unknown_kind", "params_negative_heat_capacity",
            "params_nan_olr_b", "params_not_physics_params",
        ],
    )
    def test_boundary_refused_before_a_rank_starts(self, bad):
        """A grid that is not two-dimensional, a step or solver setting
        that is not a number, more processes than grid rows, and a bad
        ``params`` value each died inside a rank with an untyped error
        (or, for ``True``, ran as 1; a misspelt kind's parameters were
        ignored and a NaN one ran NaN fields): each is refused at
        construction."""
        (name,) = bad
        with pytest.raises(ReproError, match=name):
            CCSMConfig(**bad)


class TestArbitraryNames:
    def test_renamed_components(self):
        """Paper §3(a): component names evolve (CCM -> CAM); nothing is
        hardwired."""
        cfg = CCSMConfig(
            nsteps=2,
            names={
                "atmosphere": "CAM",
                "ocean": "POP",
                "land": "CLM",
                "ice": "CSIM",
                "coupler": "cpl6",
            },
        )
        diags = run_ccsm("scme", cfg)
        assert diags["atmosphere"]["name"] == "CAM"
        assert diags["coupler"]["name"] == "cpl6"

    def test_renamed_run_matches_default_names(self):
        base = run_ccsm("scme", CCSMConfig(nsteps=2))
        renamed = run_ccsm(
            "scme",
            CCSMConfig(
                nsteps=2,
                names={
                    "atmosphere": "NCAR_atm",
                    "ocean": "o",
                    "land": "l",
                    "ice": "i",
                    "coupler": "c",
                },
            ),
        )
        for kind in MODEL_KINDS:
            np.testing.assert_array_equal(
                base[kind]["final_field"], renamed[kind]["final_field"]
            )


class TestProtocolErrors:
    def test_total_energy_requires_models(self):
        with pytest.raises(ReproError):
            total_energy_series({"coupler": {"energy": []}})


#: The least the coupler runs with: the atmosphere, one surface and
#: itself, one rank each.
HAND_KINDS = ("atmosphere", "ocean", "coupler")


def hand_driven(script):
    """Run ``script(kind, mph, runner)`` on one thread rank of each of
    :data:`HAND_KINDS`, the runners driven by hand (as the benchmark's own
    driver does).  Returns ``kind -> value``: what *script* returned, or
    the :class:`ReproError` it raised."""
    cfg = CCSMConfig()

    def program(kind):
        def run(world, env):
            mph = components_setup(world, cfg.name(kind), env=env)
            comm = mph.proc_in_component(cfg.name(kind))
            if kind == "coupler":
                runner = CouplerRunner(mph, cfg, comm)
            else:
                runner = ComponentRunner(mph, cfg, kind, comm)
            try:
                return script(kind, mph, runner)
            except ReproError as exc:
                return exc

        return run

    registry = "BEGIN\n" + "\n".join(cfg.name(k) for k in HAND_KINDS) + "\nEND\n"
    result = mph_run([(program(k), 1) for k in HAND_KINDS], registry=registry)
    return dict(zip(HAND_KINDS, result.values()))


class TestStepChecks:
    """The p2p exchange's two correctness checks, provoked: a message
    stamped with another step is refused by whichever side receives it."""

    def test_coupler_refuses_a_temperature_of_another_step(self):
        def script(kind, mph, runner):
            if kind == "coupler":
                runner.step(0)
            else:
                runner.publish(1 if kind == "atmosphere" else 0)

        out = hand_driven(script)
        assert isinstance(out["coupler"], ReproError)
        assert re.search(r"coupler protocol out of step.*expected \(atmosphere, 0\), got "
                         r"\(atmosphere, 1\)", str(out["coupler"]))

    def test_component_refuses_a_flux_of_another_step(self):
        def script(kind, mph, runner):
            if kind == "coupler":
                runner.step(0)
            else:
                runner.publish(0)
                runner.receive_and_step(1 if kind == "atmosphere" else 0)

        out = hand_driven(script)
        assert isinstance(out["atmosphere"], ReproError)
        assert re.search(r"coupling protocol out of step \(expected 1, got 0\)",
                         str(out["atmosphere"]))
        assert out["ocean"] is None and out["coupler"] is None

    def test_component_refuses_an_unknown_command_code(self):
        """A code past the end of the command table is a protocol error,
        not an ``IndexError``.  The coupler sends it with one command more
        than the component knows, and lets the component read only after
        the table is back to its own."""
        go = 1

        def script(kind, mph, runner):
            if kind == "coupler":
                known = ccsm._COMMANDS
                ccsm._COMMANDS = known + ("bogus",)
                try:
                    runner._put_flux("ocean", 0, "bogus", np.zeros(runner.cfg.shapes["ocean"]))
                finally:
                    ccsm._COMMANDS = known
                mph.send(None, runner.cfg.name("ocean"), 0, go)
            elif kind == "ocean":
                mph.recv(runner.coupler_name, 0, go)
                runner.receive_and_step(0)

        out = hand_driven(script)
        assert isinstance(out["ocean"], ReproError)
        assert "unknown coupling command code 3" in str(out["ocean"])

    def test_explicit_component_refuses_an_iterate(self):
        """Explicit coupling commits every flux it receives, so any other
        command is a protocol error naming the component, the step and the
        command, and the model does not advance."""

        def script(kind, mph, runner):
            if kind == "coupler":
                runner._put_flux("ocean", 0, "iterate", np.zeros(runner.cfg.shapes["ocean"]))
            elif kind == "ocean":
                with pytest.raises(ReproError) as refused:
                    runner.receive_and_step(0)
                return refused.value, runner.model.steps_taken

        out = hand_driven(script)
        refused, steps_taken = out["ocean"]
        assert re.search(r"ocean.*only 'commit', got 'iterate' at step 0", str(refused))
        assert steps_taken == 0
