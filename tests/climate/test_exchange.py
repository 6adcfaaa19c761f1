"""The p2p exchange: every rank's row block straight to the coupler
process that computes, and its flux block straight back.

The joint-communicator exchange (``exchange="join"``, paper §5.1) moves
the same fields by gather and scatter, so it is the reference: whatever
the execution mode, coupling scheme or layout, the two exchanges must
leave the same fields behind, on every substrate: CI's backend legs
run them over sockets, rings and, with ``--mpi-nodes 2``, both at once
on the two-node machine a job takes from ``backend_machine``.
"""

import numpy as np
import pytest

from repro.climate.ccsm import (
    MODEL_KINDS,
    CCSMConfig,
    CouplerRunner,
    build_executables,
    build_registry,
    run_ccsm,
)
from repro.core.mph import components_setup
from repro.errors import ReproError
from repro.launcher.job import mph_run

PROCS = CCSMConfig().procs  # atmosphere 4, ocean 2, land 2, ice 1, coupler 1
NSTEPS = 3
MODES = ("scme", "mcse", "mcme", "mcme_overlap")

#: ``variant -> CCSMConfig overrides`` of the p2p run.
VARIANTS = {
    "explicit": {},
    "implicit": {"coupling": "implicit"},
    "serial_coupler_of_3": {"procs": dict(PROCS, coupler=3)},
    "ice_2": {"procs": dict(PROCS, ice=2)},
}


def config(mode, variant, **extra):
    overrides = dict(VARIANTS[variant], **extra)
    if mode == "mcme_overlap":  # land shares the atmosphere's processors
        overrides["procs"] = dict(overrides.get("procs", PROCS), land=PROCS["atmosphere"])
    return CCSMConfig(nsteps=NSTEPS, **overrides)


def world_size(mode, cfg):
    return sum(n for _, n in build_executables(cfg, mode))


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("mode", MODES)
def test_p2p_leaves_the_fields_the_join_exchange_leaves(
    mode, variant, backend_config, backend_machine
):
    if mode == "mcme_overlap" and variant == "implicit":
        with pytest.raises(ReproError, match="at most one component"):
            run_ccsm(mode, config(mode, variant), config=backend_config)
        return
    job = dict(
        config=backend_config,
        machine=backend_machine(world_size(mode, config(mode, variant))),
        timeout=120.0,
    )
    p2p = run_ccsm(mode, config(mode, variant), **job)
    reference = run_ccsm(mode, config(mode, variant, exchange="join"), **job)
    assert sorted(p2p) == sorted(reference) == sorted(MODEL_KINDS + ("coupler",))
    for kind in MODEL_KINDS:
        assert p2p[kind]["final_field"].shape == config(mode, variant).shapes[kind]
        assert np.array_equal(p2p[kind]["final_field"], reference[kind]["final_field"]), kind
        assert np.array_equal(p2p[kind]["mean_T"], reference[kind]["mean_T"]), kind
        assert len(p2p[kind]["mean_T"]) == 1 + NSTEPS
    assert np.array_equal(
        p2p["coupler"]["exchange_residual"], reference["coupler"]["exchange_residual"]
    )
    assert p2p["coupler"]["dropped_components"] == []
    if variant == "implicit":
        assert p2p["coupler"]["coupling_iterations"] == reference["coupler"]["coupling_iterations"]
        assert all(p2p["coupler"]["coupling_converged"])


def test_the_coupler_profile_counts_one_message_per_rank_each_way(
    backend_config, backend_machine
):
    """The p2p exchange is MPH's own send/recv, so the coupler's
    ``mph.profile`` ledgers it: per component, one block in and one out
    per component process and step."""
    cfg = CCSMConfig(nsteps=NSTEPS)

    def coupler(world, env):
        mph = components_setup(world, "coupler", env=env)
        runner = CouplerRunner(mph, cfg, mph.proc_in_component("coupler"))
        for step in range(cfg.nsteps):
            runner.step(step)
        p = mph.profile
        return p.sent, p.received, p.bytes_sent, p.bytes_received

    executables = build_executables(cfg, "scme")
    executables[-1] = (coupler, PROCS["coupler"])
    result = mph_run(
        executables, registry=build_registry(cfg, "scme"), config=backend_config,
        machine=backend_machine(world_size("scme", cfg)), timeout=120.0,
    )
    sent, received, bytes_sent, bytes_received = result.by_executable(len(executables) - 1)[0]
    expected = {kind: PROCS[kind] * NSTEPS for kind in MODEL_KINDS}
    assert sent == received == expected
    assert all(bytes_sent[kind] > 0 and bytes_received[kind] > 0 for kind in MODEL_KINDS)


def test_a_standalone_component_runs_uncoupled():
    """No registered coupler: one atmosphere, stepping on its own."""
    out = run_ccsm("scse", CCSMConfig(nsteps=2))
    assert sorted(out) == ["atmosphere"]
    assert len(out["atmosphere"]["mean_T"]) == 3
