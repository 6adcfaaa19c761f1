"""How many messages one coupled step sends — pinned.

The counts are exact on the thread world (one shared set of counters),
so every cell is a literal: a change to the step's communication shows
up here as a diff of this table, not in a 20 s traced benchmark run.
"""

import pytest

from repro.climate.ccsm import CCSMConfig, build_executables, build_registry
from repro.launcher.job import mph_run

PROCS = CCSMConfig().procs  # atmosphere 4, ocean 2, land 2, ice 1, coupler 1
NSTEPS = 1

#: ``case -> (mode, CCSMConfig overrides, messages of a zero-step run,
#: (messages, payload_bytes) per step, (messages, payload_bytes) of the
#: run's one settle)`` on the default layout and default ``shapes``.  The
#: implicit rows converge in 5 Aitken iterations on each of the first two
#: steps; from the third the predictor extrapolates and a step costs
#: fewer, so the per-step cells are the second step's (``NSTEPS = 1``),
#: which costs what the first does.  Under p2p
#: a step's coupling messages are one per component rank each way (9 + 9
#: on the default layout), whichever mode hosts the ranks; its halo rows
#: are the rest.  A p2p coupling message is one float64 array: its block
#: plus 8 B (a temperature: the step) or 16 B (a flux: the step and the
#: command code) of header words.  A step's diagnostics send nothing
#: until the run settles them at its end: one gather and one broadcast
#: per component, 2 (P - 1) messages, whose bytes are each step's row
#: totals (counted in the step's bytes) and nothing more: the gather
#: ships bare arrays, so the last column's fixed cost is 0 bytes.
GOLDEN = {
    "explicit_p2p": ("scme", {}, 56, (26, 19176), (10, 0)),
    "explicit_join": ("scme", {"exchange": "join"}, 65, (26, 20220), (10, 0)),
    "implicit_p2p": ("scme", {"coupling": "implicit"}, 56, (116, 100256), (10, 0)),
    "implicit_join": (
        "scme",
        {"coupling": "implicit", "exchange": "join"},
        65,
        (116, 106565),
        (10, 0),
    ),
    # The ocean's three substeps record three steps; one settle takes them.
    "implicit_subcycle": (
        "scme",
        {"coupling": "implicit", "subcycle": {"ocean": 3}},
        56,
        (140, 105424),
        (10, 0),
    ),
    "ice_2": ("scme", {"procs": dict(PROCS, ice=2)}, 66, (28, 19360), (12, 0)),
    "mcse": ("mcse", {}, 65, (26, 19176), (10, 0)),
    # Land on the atmosphere's four processors: two more ranks each way.
    "mcme_overlap": (
        "mcme_overlap",
        {"procs": dict(PROCS, land=PROCS["atmosphere"])},
        61,
        (30, 19352),
        (14, 0),
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
    mode, overrides, expected_idle, expected_step, expected_settle = GOLDEN[case]
    idle, one, more = (
        run_traffic(mode, CCSMConfig(nsteps=n, **overrides)) for n in (0, 1, 1 + NSTEPS)
    )
    # Handshake, joins and model construction; setting up the exchange
    # sends nothing, and neither does settling a run that took no step.
    assert idle[0] == expected_idle
    # Both runs settle once, at the end: what NSTEPS more steps added.
    per_step = tuple(divmod(a - b, NSTEPS) for a, b in zip(more, one))
    assert per_step == tuple((value, 0) for value in expected_step)
    # The rest of a one-step run over a zero-step one is its settle.
    settle = tuple(a - b - c for a, b, c in zip(one, idle, expected_step))
    assert settle == expected_settle
