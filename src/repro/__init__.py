"""repro — reproduction of MPH (Ding & He, IPPS 2004).

MPH ("Multiple Program-component Handshaking") integrates stand-alone and/or
semi-independent program components into a comprehensive simulation system on
distributed-memory architectures.  This package reproduces the complete MPH
library together with every substrate it depends on:

``repro.mpi``
    A simulated MPI implementation (threads as MPI processes, pickled
    value-semantics messaging, communicators, groups, collectives) whose API
    mirrors mpi4py.
``repro.launcher``
    An MPMD job-launch simulator: command files, rank-assignment policies,
    SMP node topology, and the shared ``COMM_WORLD`` startup condition that
    MPH's handshake resolves.
``repro.core``
    MPH itself: the registration file, the five execution modes (SCSE, MCSE,
    SCME, MCME, MIME), component handshaking, ``comm_join``, inter-component
    messaging, inquiry functions, per-instance argument passing, multi-channel
    output redirection, ensemble statistics, and dynamic migration.
``repro.climate``
    A CCSM-style toy coupled climate model (atmosphere / ocean / land /
    sea-ice / flux coupler) exercising MPH the way the paper's motivating
    application does.
``repro.baselines``
    The comparison approaches the paper discusses: a PCM-style hardwired
    monolithic single executable, a conventional independent-jobs ensemble,
    and file-based coupling.
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    MPIError,
    MPHError,
    RegistryError,
    LaunchError,
    DeadlockError,
    TransportError,
)
from repro.core.registry import Registry
from repro.core.mph import MPH, components_setup, multi_instance
from repro.core.session import (
    Session,
    components_session,
    instance_session,
)
from repro.errors import SessionError
from repro.launcher.job import MpmdJob, mph_run

__all__ = [
    "__version__",
    "ReproError",
    "MPIError",
    "MPHError",
    "RegistryError",
    "LaunchError",
    "DeadlockError",
    "TransportError",
    "SessionError",
    "Registry",
    "MPH",
    "components_setup",
    "multi_instance",
    "Session",
    "components_session",
    "instance_session",
    "MpmdJob",
    "mph_run",
]
