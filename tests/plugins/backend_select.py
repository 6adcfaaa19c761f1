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
    Spread the ranks over *N* simulated nodes (default: unset, one
    node).  A world's nodes are where the launcher placed its ranks
    (``World.node_map``), so the option reaches a world as that map:
    the SPMD runners and ``backend_node_map`` give :func:`block_node_map`
    of a rank count, and ``backend_machine`` a
    :class:`~repro.launcher.smp.Machine` whose placement makes the same
    split for an ``MpmdJob`` (``mph_run``, ``run_ccsm``).  With ``N >= 2``
    a collective crosses each node boundary once (a representative per
    node relays for its node-mates) and, for the ``shm`` transport,
    cross-node pairs fall back to sockets.

``mpi_backend``
    A parametrized fixture naming the backend of the current test.

``backend_config``
    A fresh :class:`~repro.mpi.world.WorldConfig` for that backend,
    carrying the transport option.

``backend_machine``
    ``machine(nprocs)`` — the :class:`~repro.launcher.smp.Machine` an
    ``MpmdJob`` of *nprocs* ranks takes for ``--mpi-nodes`` (``None``
    without the option).

``backend_node_map``
    ``node_map(nprocs)`` — the same split as a node map, for ``launch``
    and ``run_spmd`` (``None`` without the option).

``backend_spmd``
    ``runner(n, fn, *, nodes=None, **kw)`` — :func:`repro.mpi.run_spmd`
    against the selected backend, over *nodes* (else ``--mpi-nodes``)
    nodes placed by :func:`block_node_map`, with a test-friendly
    timeout.  Process-backend runs get a larger default budget (real
    fork + socket bootstrap per rank).

``leg_spmd``
    The same runner without the parametrization: one backend, the one
    the command line names (threads when it names both).

An autouse session fixture also asserts that no shm segments survive the
run: a leaked ``/dev/shm`` mapping is a correctness bug (the rendezvous
sweep must remove segments on every exit path, crashes included).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest

from repro.launcher.smp import Machine
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
        help="spread the ranks over this many simulated nodes "
        "(default: single node)",
    )


def block_node_map(nprocs: int, nnodes: Optional[int]) -> Optional[tuple]:
    """The node map of *nprocs* ranks in *nnodes* contiguous blocks whose
    sizes differ by at most one — rank *r* on node ``r * nnodes //
    nprocs`` (at most one node per rank) — or ``None`` (one node) for
    no *nnodes*."""
    if nnodes is None:
        return None
    nnodes = min(nnodes, nprocs)
    return tuple(r * nnodes // nprocs for r in range(nprocs))


def leg_machine(nprocs: int, nnodes: Optional[int]) -> Optional[Machine]:
    """A machine of *nnodes* nodes that an ``MpmdJob`` of *nprocs* ranks
    fills — ``ceil(nprocs / nnodes)`` CPUs a node, so the placement is
    never one node when there are several — or ``None`` for no
    *nnodes*."""
    if nnodes is None:
        return None
    return Machine.homogeneous(nnodes, -(-nprocs // nnodes))


def pytest_generate_tests(metafunc):
    if "mpi_backend" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--mpi-backend")
        backends = _BACKENDS if choice == "both" else (choice,)
        metafunc.parametrize("mpi_backend", backends, indirect=True)


def _make_config(mpi_backend, pytestconfig):
    kw = {"backend": mpi_backend}
    if mpi_backend == "process":
        kw["transport"] = pytestconfig.getoption("--mpi-transport")
    return WorldConfig(**kw)


def _spmd(config, nnodes, n, fn, timeout, kw):
    if timeout is None:
        timeout = 60.0 if config.backend == "process" else 30.0
    return run_spmd(
        n, fn, config=config, timeout=timeout, node_map=block_node_map(n, nnodes), **kw
    )


@pytest.fixture
def mpi_backend(request):
    """The execution backend of the current parametrization."""
    return request.param


@pytest.fixture
def backend_config(mpi_backend, pytestconfig):
    """A fresh world config for the selected backend."""
    return _make_config(mpi_backend, pytestconfig)


@pytest.fixture
def backend_machine(pytestconfig):
    """``machine(nprocs)``: the ``--mpi-nodes`` machine for a job of
    *nprocs* ranks (see :func:`leg_machine`)."""
    nnodes = pytestconfig.getoption("--mpi-nodes")
    return lambda nprocs: leg_machine(nprocs, nnodes)


@pytest.fixture
def backend_node_map(pytestconfig):
    """``node_map(nprocs)``: the ``--mpi-nodes`` node map of *nprocs*
    ranks (see :func:`block_node_map`)."""
    nnodes = pytestconfig.getoption("--mpi-nodes")
    return lambda nprocs: block_node_map(nprocs, nnodes)


@pytest.fixture
def backend_spmd(mpi_backend, pytestconfig):
    """SPMD runner against the selected backend."""
    nnodes = pytestconfig.getoption("--mpi-nodes")

    def runner(n, fn, *, config=None, nodes=None, timeout=None, **kw):
        if config is None:
            config = _make_config(mpi_backend, pytestconfig)
        return _spmd(config, nodes or nnodes, n, fn, timeout, kw)

    runner.backend = mpi_backend
    return runner


@pytest.fixture
def leg_spmd(pytestconfig):
    """SPMD runner on the *one* backend the command line names (the
    thread world when it says ``both``), for suites whose ids carry
    another axis.  A ``config`` a test passes keeps its own fields and
    takes the leg's backend and transport, and a node count it passes
    (``nodes=``) wins over the leg's, so CI's process legs run the suite
    over real rings and sockets while tier-1 runs it once, on threads."""
    choice = pytestconfig.getoption("--mpi-backend")
    leg = _make_config("thread" if choice == "both" else choice, pytestconfig)
    nnodes = pytestconfig.getoption("--mpi-nodes")

    def runner(n, fn, *, config=None, nodes=None, timeout=None, **kw):
        if config is None:
            config = leg
        else:
            config = dataclasses.replace(config, backend=leg.backend, transport=leg.transport)
        return _spmd(config, nodes or nnodes, n, fn, timeout, kw)

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
