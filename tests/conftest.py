"""Shared test fixtures and helpers.

Most tests run small simulated-MPI jobs; ``spmd`` wraps
:func:`repro.mpi.run_spmd` with a tight default timeout so a regression
that deadlocks fails in seconds, not minutes (the substrate's deadlock
detector usually fires first and reports *what* each rank was blocked on).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.mpi.executor import run_spmd
from repro.mpi.world import WorldConfig


@pytest.fixture
def spmd():
    """Run ``fn(comm)`` on *n* fresh ranks; returns per-rank values."""

    def runner(n, fn, *, config: WorldConfig | None = None, timeout: float = 30.0, **kw):
        return run_spmd(n, fn, config=config, timeout=timeout, **kw)

    return runner


@pytest.fixture
def fast_deadlock_config():
    """A world config with a short deadlock grace for failure tests."""
    return WorldConfig(deadlock_grace=0.3)


@pytest.fixture
def short_tmp():
    """A temp dir of its own with a path short enough for the sockets a
    world binds in it (pytest's ``tmp_path`` is not: a rendezvous socket
    under it passes the 108-byte ``AF_UNIX`` limit)."""
    path = Path(tempfile.mkdtemp(prefix="u"))
    yield path
    shutil.rmtree(path, ignore_errors=True)
