"""Shared fixtures for the service-level suite: a small program catalog
following the service convention (``env.program`` is the component name
from the job document) and document factories.

The programs are module-level functions on purpose: the process backend
forks, and fork inheritance is what carries the closures across — a
lambda defined inside a test body works too, but module level keeps the
catalog importable from every test file.
"""

from __future__ import annotations

import time

import pytest

from repro import components_setup

#: Iterations of the chaos program's barrier loop — comfortably past the
#: ``max_op`` ceiling the chaos suite draws crash operations from, so a
#: scheduled crash always fires before the job finishes.
CHAOS_OPS = 40


def model(comm, env):
    """A two-component coupled exchange (components ``atm`` and ``ocn``).

    Deterministic per rank and argv, independent of backend: ``atm``
    ranks compute a forcing from ``--co2`` and their local id, send it
    to the matching ``ocn`` rank, and get a proportional uptake back —
    the values the conformance suite compares bitwise across backends.
    """
    mph = components_setup(comm, env.program, env=env)
    co2 = float(env.argv[env.argv.index("--co2") + 1]) if "--co2" in env.argv else 1.0
    me = mph.local_proc_id()
    if mph.comp_name() == "atm":
        forcing = 3.7 * (co2 - 1.0) + me
        mph.send(forcing, "ocn", me, tag=11)
        uptake = mph.recv("ocn", me, tag=12)
        return {"component": "atm", "rank": me, "forcing": forcing, "uptake": uptake}
    forcing = mph.recv("atm", me, tag=11)
    uptake = round(0.9 * forcing, 6)
    mph.send(uptake, "atm", me, tag=12)
    return {"component": "ocn", "rank": me, "uptake": uptake}


def solo(comm, env):
    """A single-component program: pure function of its env."""
    mph = components_setup(comm, env.program, env=env)
    return {
        "component": mph.comp_name(),
        "rank": mph.local_proc_id(),
        "argv": list(env.argv),
    }


def chaotic(comm, env):
    """The chaos target: a long barrier loop, so any crash scheduled at
    an operation count up to :data:`CHAOS_OPS` fires mid-job.

    Survivors follow the repo's ULFM idiom — a barrier involving the
    dead rank raises :class:`ProcessFailedError`, which they catch and
    degrade on.  That leaves the injected :class:`SimulatedCrash` as the
    job's *only* per-rank failure, so ``JobResult.failures()`` names
    exactly the crashed component.
    """
    from repro.errors import ProcessFailedError

    try:
        components_setup(comm, env.program, env=env)
        acc = 0
        for i in range(CHAOS_OPS):
            comm.barrier()
            acc += i
    except ProcessFailedError:
        return {"component": env.program, "degraded": True}
    return {"component": env.program, "acc": acc}


def crasher(comm, env):
    """Raises a plain user exception when told to — exercises the
    resident world's poison path without a fault schedule (those are
    thread-backend-only by document validation)."""
    components_setup(comm, env.program, env=env)
    if "--boom" in env.argv:
        raise ValueError(f"boom from {env.program}")
    return {"component": env.program, "ok": True}


def sleeper(comm, env):
    """Sleeps for ``--seconds S`` — admission/cancellation tests use it
    to hold a worker busy deterministically."""
    components_setup(comm, env.program, env=env)
    seconds = float(env.argv[env.argv.index("--seconds") + 1])
    time.sleep(seconds)
    return {"component": env.program, "slept": seconds}


#: The service catalog every suite binds documents against.
PROGRAMS = {
    "model": model,
    "solo": solo,
    "chaotic": chaotic,
    "crasher": crasher,
    "sleeper": sleeper,
}


@pytest.fixture
def service_programs():
    return dict(PROGRAMS)


def coupled_doc(backend: str, *, transport: str = "auto", co2: float = 2.0, **extra) -> dict:
    """The conformance suite's canonical document: the same coupled
    ``atm``/``ocn`` job, parametrized only by backend selection."""
    runtime = {"backend": backend, "timeout": 60.0}
    if backend == "process":
        runtime["transport"] = transport
    runtime.update(extra.pop("runtime", {}))
    spec = {
        "mph_job": 1,
        "name": "conformance-coupled",
        "components": [
            {"name": "atm", "nprocs": 2, "program": "model",
             "argv": ["--co2", str(co2)]},
            {"name": "ocn", "nprocs": 2, "program": "model",
             "argv": ["--co2", str(co2)]},
        ],
        "runtime": runtime,
        "output": {"save": ["values", "document"]},
    }
    spec.update(extra)
    return spec


@pytest.fixture
def make_coupled_doc():
    return coupled_doc
