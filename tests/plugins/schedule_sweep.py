"""Schedule-sweep pytest plugin: run schedule-sensitive tests under many
match-order seeds and print a one-line reproduction command on failure.

Any test that names the ``match_seed`` fixture (directly, or through the
``mpi_world`` runner / ``sweep_config`` factory) is automatically
parametrized over a sweep of :class:`repro.mpi.sched.MatchSchedule`
seeds; any test naming ``fault_seed`` sweeps
:class:`repro.mpi.faults.FaultSchedule` seeds the same way.  Knobs:

``--mpi-schedules=N``
    Sweep width (default 5 seeds).  ``--mpi-schedules=1`` turns a sweep
    into a single deterministic run for quick iteration.
``--mpi-match-seed=K`` / ``--mpi-fault-seed=J``
    Pin the sweep to exactly one seed — what the printed repro command
    uses to replay a failure bit-for-bit.
``--mpi-trace-dir=DIR``
    Where failing runs dump their schedule + trace specs (default
    ``.schedule-traces``; CI uploads it as an artifact).

The ``@pytest.mark.schedule_sweep(n)`` marker overrides the sweep width
for one test.  On failure the report gains a ``schedule sweep repro``
section carrying the exact ``PYTHONPATH=src python -m pytest ...
--mpi-match-seed=K`` command (see
:func:`repro.mpi.sched.repro_command`) plus the trace-spec path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

from repro.mpi.executor import run_spmd
from repro.mpi.sched import MatchSchedule, repro_command
from repro.mpi.world import WorldConfig

#: Default sweep width when neither ``--mpi-schedules`` nor the
#: ``schedule_sweep`` marker says otherwise.
DEFAULT_SWEEP = 5

#: Default fault-seed sweep width (matches the historical chaos matrix).
DEFAULT_FAULT_SWEEP = 5


def pytest_addoption(parser):
    group = parser.getgroup("mpi schedule sweep")
    group.addoption(
        "--mpi-schedules",
        type=int,
        default=None,
        metavar="N",
        help="sweep schedule-sensitive tests over N match seeds "
        f"(default {DEFAULT_SWEEP})",
    )
    group.addoption(
        "--mpi-match-seed",
        type=int,
        default=None,
        metavar="K",
        help="pin the match-schedule sweep to exactly seed K (replay)",
    )
    group.addoption(
        "--mpi-fault-seed",
        type=int,
        default=None,
        metavar="J",
        help="pin the fault-schedule sweep to exactly seed J (replay)",
    )
    group.addoption(
        "--mpi-trace-dir",
        default=".schedule-traces",
        metavar="DIR",
        help="directory for failing-run schedule/trace dumps",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "schedule_sweep(n): sweep this test over n match-schedule seeds "
        "(overrides --mpi-schedules)",
    )


def pytest_generate_tests(metafunc):
    if "match_seed" in metafunc.fixturenames:
        forced = metafunc.config.getoption("--mpi-match-seed")
        if forced is not None:
            seeds = [forced]
        else:
            marker = metafunc.definition.get_closest_marker("schedule_sweep")
            if marker is not None and marker.args:
                n = int(marker.args[0])
            else:
                n = metafunc.config.getoption("--mpi-schedules") or DEFAULT_SWEEP
            seeds = list(range(n))
        metafunc.parametrize(
            "match_seed", seeds, indirect=True, ids=[f"mseed{s}" for s in seeds]
        )
    if "fault_seed" in metafunc.fixturenames:
        forced = metafunc.config.getoption("--mpi-fault-seed")
        if forced is None and os.environ.get("CHAOS_SEED"):
            forced = int(os.environ["CHAOS_SEED"])
        seeds = [forced] if forced is not None else list(range(DEFAULT_FAULT_SWEEP))
        metafunc.parametrize(
            "fault_seed", seeds, indirect=True, ids=[f"fseed{s}" for s in seeds]
        )


@pytest.fixture
def match_seed(request):
    """The match-schedule seed of this swept run (0 when unswept)."""
    seed = getattr(request, "param", 0)
    _sweep_state(request.node)["match_seed"] = seed
    return seed


@pytest.fixture
def fault_seed(request):
    """The fault-schedule seed of this swept run (0 when unswept)."""
    seed = getattr(request, "param", 0)
    _sweep_state(request.node)["fault_seed"] = seed
    return seed


def _sweep_state(node) -> dict:
    state = getattr(node, "_sched_sweep_state", None)
    if state is None:
        state = {"match_seed": None, "fault_seed": None, "schedules": []}
        node._sched_sweep_state = state
    return state


def _armed_config(state, config: WorldConfig | None) -> WorldConfig:
    """*config* with a fresh schedule for this run's seed armed on it."""
    schedule = MatchSchedule(seed=state["match_seed"] or 0)
    state["schedules"].append(schedule)
    base = config if config is not None else WorldConfig()
    return dataclasses.replace(base, match_schedule=schedule)


@pytest.fixture
def mpi_world(request, match_seed):
    """Like the ``spmd`` runner, but every run is armed with a fresh
    ``MatchSchedule(seed=match_seed)`` — the swept-test entry point for
    plain SPMD programs.  Two runs inside one test get identical
    schedules (same seed, fresh counters), keeping the whole test a
    function of its seed."""
    state = _sweep_state(request.node)

    def runner(n, fn, *, config: WorldConfig | None = None, timeout: float = 30.0, **kw):
        return run_spmd(
            n, fn, config=_armed_config(state, config), timeout=timeout, **kw
        )

    return runner


@pytest.fixture
def sweep_config(request, match_seed):
    """Factory building a ``WorldConfig`` armed for this run's seed, for
    tests that drive ``mph_run``/``run_world`` themselves::

        result = mph_run(jobs, registry=REG, config=sweep_config())
    """
    state = _sweep_state(request.node)

    def factory(config: WorldConfig | None = None) -> WorldConfig:
        return _armed_config(state, config)

    return factory


def _trace_path(config, nodeid: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", nodeid).strip("_")
    trace_dir = config.getoption("--mpi-trace-dir")
    os.makedirs(trace_dir, exist_ok=True)
    return os.path.join(trace_dir, f"{safe}.json")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    state = getattr(item, "_sched_sweep_state", None)
    if state is None:
        return
    lines = [
        repro_command(
            item.nodeid,
            match_seed=state["match_seed"],
            fault_seed=state["fault_seed"],
        )
    ]
    if state["schedules"]:
        path = _trace_path(item.config, item.nodeid)
        try:
            with open(path, "w") as fh:
                json.dump(
                    {
                        "nodeid": item.nodeid,
                        "match_seed": state["match_seed"],
                        "fault_seed": state["fault_seed"],
                        "schedules": [s.to_spec() for s in state["schedules"]],
                        "traces": [s.trace().to_spec() for s in state["schedules"]],
                    },
                    fh,
                    indent=1,
                )
        except OSError as exc:  # unwritable trace dir: keep the repro line
            lines.append(f"(trace dump failed: {exc})")
        else:
            lines.append(f"trace spec: {path}")
    report.sections.append(("schedule sweep repro", "\n".join(lines)))
