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

#: ``case -> (mode, CCSMConfig overrides, messages of a zero-step run,
#: (messages, payload_bytes) per step)`` on the default layout and default
#: ``shapes``.  The implicit rows converge in 6 Gauss-Seidel iterations a
#: step.  Under p2p a step's coupling messages are one per component rank
#: each way (9 + 9 on the default layout), whichever mode hosts the ranks.
GOLDEN = {
    "explicit_p2p": ("scme", {}, 56, (36, 45390)),
    "explicit_join": ("scme", {"exchange": "join"}, 65, (36, 44202)),
    "implicit_p2p": ("scme", {"coupling": "implicit"}, 56, (144, 156078)),
    "implicit_join": (
        "scme",
        {"coupling": "implicit", "exchange": "join"},
        65,
        (144, 147816),
    ),
    "implicit_subcycle": (
        "scme",
        {"coupling": "implicit", "subcycle": {"ocean": 3}},
        56,
        (176, 173730),
    ),
    "ice_2": ("scme", {"procs": dict(PROCS, ice=2)}, 66, (40, 47480)),
    "mcse": ("mcse", {}, 65, (36, 45390)),
    # Land on the atmosphere's four processors: two more ranks each way.
    "mcme_overlap": (
        "mcme_overlap",
        {"procs": dict(PROCS, land=PROCS["atmosphere"])},
        61,
        (44, 47642),
    ),
}


def counted(program):
    """*program*, returning what its world has counted when it is done."""

    def wrapper(world, env):
        program(world, env)
        seen = world.world.traffic_snapshot()
        return (seen.messages, seen.payload_bytes)

    wrapper.__name__ = program.__name__
    return wrapper


def run_traffic(mode, cfg):
    """``(messages, payload_bytes)`` of one whole run in *mode*: thread
    ranks share the counters, so the last rank out read the total."""
    executables = [(counted(p), n) for p, n in build_executables(cfg, mode)]
    return max(mph_run(executables, registry=build_registry(cfg, mode)).values())


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_step_traffic(case):
    mode, overrides, expected_idle, expected = GOLDEN[case]
    full = run_traffic(mode, CCSMConfig(nsteps=NSTEPS, **overrides))
    idle = run_traffic(mode, CCSMConfig(nsteps=0, **overrides))
    # Handshake, joins and model construction; setting up the exchange sends nothing.
    assert idle[0] == expected_idle
    # What the steps added to a zero-step run of the same world.
    per_step = tuple(divmod(a - b, NSTEPS) for a, b in zip(full, idle))
    assert per_step == tuple((value, 0) for value in expected)
