"""How many messages one coupled step sends — pinned.

The counts are exact on the thread world (one shared set of counters),
so every cell is a literal: a change to the step's communication shows
up here as a diff of this table, not in a 20 s traced benchmark run.
"""

import pytest

from repro.climate.ccsm import CCSMConfig, build_executables, build_registry
from repro.launcher.job import mph_run

PROCS = CCSMConfig().procs  # atmosphere 4, ocean 2, land 2, ice 1, coupler 1
NSTEPS = 2

#: ``case -> (CCSMConfig overrides, (messages, payload_bytes) per step)``
#: on the default layout and default ``shapes``.  The implicit rows
#: converge in 6 Gauss-Seidel iterations a step.
GOLDEN = {
    "explicit_p2p": ({}, (36, 53512)),
    "explicit_join": ({"exchange": "join"}, (36, 42772)),
    "parallel_coupler": (
        {"coupler_mode": "parallel", "procs": dict(PROCS, coupler=3)},
        (46, 80580),
    ),
    "implicit_p2p": ({"coupling": "implicit"}, (192, 229714)),
    "implicit_join": ({"coupling": "implicit", "exchange": "join"}, (192, 159336)),
    "implicit_subcycle": (
        {"coupling": "implicit", "subcycle": {"ocean": 3}},
        (224, 247366),
    ),
    "ice_2": ({"procs": dict(PROCS, ice=2)}, (40, 55906)),
}


def counted(program):
    """*program*, returning what its world has counted when it is done."""

    def wrapper(world, env):
        program(world, env)
        seen = world.world.traffic_snapshot()
        return (seen.messages, seen.payload_bytes)

    wrapper.__name__ = program.__name__
    return wrapper


def run_traffic(cfg):
    """``(messages, payload_bytes)`` of one whole ``scme`` run: thread
    ranks share the counters, so the last rank out read the total."""
    executables = [(counted(p), n) for p, n in build_executables(cfg, "scme")]
    return max(mph_run(executables, registry=build_registry(cfg, "scme")).values())


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_step_traffic(case):
    overrides, expected = GOLDEN[case]
    full = run_traffic(CCSMConfig(nsteps=NSTEPS, **overrides))
    idle = run_traffic(CCSMConfig(nsteps=0, **overrides))
    # What the steps added to a zero-step run of the same world.
    per_step = tuple(divmod(a - b, NSTEPS) for a, b in zip(full, idle))
    assert per_step == tuple((value, 0) for value in expected)
