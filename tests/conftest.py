"""Shared test fixtures and helpers.

Most tests run small simulated-MPI jobs; ``spmd`` wraps
:func:`repro.mpi.run_spmd` with a tight default timeout so a regression
that deadlocks fails in seconds, not minutes (the substrate's deadlock
detector usually fires first and reports *what* each rank was blocked on).
"""

from __future__ import annotations

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
