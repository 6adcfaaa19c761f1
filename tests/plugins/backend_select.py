"""Pytest plugin: parametrize tests over the execution backend.

The conformance suite (``tests/mpi/test_conformance.py``) runs every MPI
semantics case on both the thread and the process backend.  This plugin
provides the knobs:

``--mpi-backend {thread,process,both}``
    Which backend(s) the ``mpi_backend`` fixture yields (default
    ``both``).  CI's backend matrix runs one job per value, so a process
    backend hang can't mask thread results (and vice versa).

``--mpi-transport {auto,unix,shm}``
    Wire transport for process-backend runs (default ``auto``, which is
    the socket transport).  CI adds a ``process`` + ``shm`` leg so the
    shared-memory rings and page pool face the full conformance and
    chaos suites, not just their unit tests.  Thread-backend
    parametrizations ignore this (the thread transport is the only
    valid choice there).

``--mpi-nodes N``
    Simulated node count for the world topology (default: unset, one
    node).  With ``N >= 2`` a collective crosses each node boundary once
    (a representative per node relays for its node-mates) and, for the
    ``shm`` transport, cross-node pairs fall back to sockets.

``mpi_backend``
    A parametrized fixture naming the backend of the current test.

``backend_config``
    A fresh :class:`~repro.mpi.world.WorldConfig` for that backend,
    carrying the transport and node options.

``backend_spmd``
    ``runner(n, fn, **kw)`` — :func:`repro.mpi.run_spmd` against the
    selected backend with a test-friendly timeout.  Process-backend runs
    get a larger default budget (real fork + socket bootstrap per rank).

``leg_spmd``
    The same runner without the parametrization: one backend, the one
    the command line names (threads when it names both).

An autouse session fixture also asserts that no shm segments survive the
run: a leaked ``/dev/shm`` mapping is a correctness bug (the rendezvous
sweep must remove segments on every exit path, crashes included).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.mpi.executor import run_spmd
from repro.mpi.world import WorldConfig

_BACKENDS = ("thread", "process")
_TRANSPORTS = ("auto", "unix", "shm")


def pytest_addoption(parser):
    group = parser.getgroup("mpi-backend")
    group.addoption(
        "--mpi-backend",
        action="store",
        default="both",
        choices=_BACKENDS + ("both",),
        help="execution backend(s) for backend-parametrized tests "
        "(default: both)",
    )
    group.addoption(
        "--mpi-transport",
        action="store",
        default="auto",
        choices=_TRANSPORTS,
        help="wire transport for process-backend runs (default: auto)",
    )
    group.addoption(
        "--mpi-nodes",
        action="store",
        type=int,
        default=None,
        help="simulated node count for the world topology "
        "(default: single node)",
    )


def pytest_generate_tests(metafunc):
    if "mpi_backend" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--mpi-backend")
        backends = _BACKENDS if choice == "both" else (choice,)
        metafunc.parametrize("mpi_backend", backends, indirect=True)


def _make_config(mpi_backend, pytestconfig):
    kw = {"backend": mpi_backend}
    if mpi_backend == "process":
        kw["transport"] = pytestconfig.getoption("--mpi-transport")
    nodes = pytestconfig.getoption("--mpi-nodes")
    if nodes is not None:
        kw["nodes"] = nodes
    return WorldConfig(**kw)


@pytest.fixture
def mpi_backend(request):
    """The execution backend of the current parametrization."""
    return request.param


@pytest.fixture
def backend_config(mpi_backend, pytestconfig):
    """A fresh world config for the selected backend."""
    return _make_config(mpi_backend, pytestconfig)


@pytest.fixture
def backend_spmd(mpi_backend, pytestconfig):
    """SPMD runner against the selected backend."""

    def runner(n, fn, *, config=None, timeout=None, **kw):
        if config is None:
            config = _make_config(mpi_backend, pytestconfig)
        if timeout is None:
            timeout = 60.0 if mpi_backend == "process" else 30.0
        return run_spmd(n, fn, config=config, timeout=timeout, **kw)

    runner.backend = mpi_backend
    return runner


@pytest.fixture
def leg_spmd(pytestconfig):
    """SPMD runner on the *one* backend the command line names (the
    thread world when it says ``both``), for suites whose ids carry
    another axis.  A ``config`` a test passes keeps its own fields and
    takes the leg's backend, transport and — unless it sets one — node
    count, so CI's process legs run the suite over real rings and
    sockets while tier-1 runs it once, on threads."""
    choice = pytestconfig.getoption("--mpi-backend")
    leg = _make_config("thread" if choice == "both" else choice, pytestconfig)

    def runner(n, fn, *, config=None, timeout=None, **kw):
        if config is None:
            config = leg
        else:
            config = dataclasses.replace(
                config,
                backend=leg.backend,
                transport=leg.transport,
                nodes=config.nodes or leg.nodes,
            )
        if timeout is None:
            timeout = 60.0 if leg.backend == "process" else 30.0
        return run_spmd(n, fn, config=config, timeout=timeout, **kw)

    return runner


@pytest.fixture(autouse=True, scope="session")
def _no_shm_segment_leaks():
    """Every shm segment must be unlinked by the time the session ends.

    Segments are namespaced by the rendezvous directory name (prefix
    ``repro-mpi-``), so concurrent unrelated processes don't trip this.
    """
    from repro.mpi.shm import list_segments

    yield
    leaked = list_segments("repro-mpi-")
    assert not leaked, f"leaked shm segments: {leaked}"
