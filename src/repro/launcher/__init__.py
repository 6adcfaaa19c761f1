"""MPMD job-launch simulator: command files, rank maps, SMP topology, jobs.

This package reproduces the *environment* MPH runs in — the vendor job
launchers of Section 6 of the paper.  It provides:

* :mod:`repro.launcher.cmdfile` — parsing of ``poe -cmdfile`` task files
  and ``mpirun`` MPMD colon specs;
* :mod:`repro.launcher.rankmap` — block and round-robin global-rank
  assignment (the handshake must be invariant to the launcher's choice);
* :mod:`repro.launcher.smp` — SMP node topology with the no-overlap
  allocation policy and node carving;
* :mod:`repro.launcher.job` — :class:`MpmdJob`, which loads executables
  onto one shared ``COMM_WORLD`` exactly as real MPMD launchers do, and
  :func:`rank_pool`, the parked processes a caller of many jobs keeps
  between them.
"""

from repro.launcher.cmdfile import (
    ExecutableSpec,
    parse_mpirun_spec,
    parse_poe_cmdfile,
    resolve_programs,
)
from repro.launcher.job import JobEnv, JobResult, MpmdJob, mph_run, rank_pool
from repro.launcher.rankmap import POLICIES, assign_ranks, executable_of_rank
from repro.launcher.smp import CpuSlot, Machine, Placement, SmpNode

__all__ = [
    "ExecutableSpec",
    "parse_mpirun_spec",
    "parse_poe_cmdfile",
    "resolve_programs",
    "JobEnv",
    "JobResult",
    "MpmdJob",
    "mph_run",
    "rank_pool",
    "POLICIES",
    "assign_ranks",
    "executable_of_rank",
    "CpuSlot",
    "Machine",
    "Placement",
    "SmpNode",
]
