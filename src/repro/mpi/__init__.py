"""Simulated MPI substrate: threads as processes, mpi4py-style API.

This package provides everything MPH needs from an MPI library —
``COMM_WORLD``, tagged point-to-point messaging with wildcards, the full
collective suite, groups, and above all ``Comm.split`` — implemented over
per-process mailboxes with MPI matching semantics.  See
:mod:`repro.mpi.world` for the safety nets (abort propagation and deadlock
detection) and :mod:`repro.mpi.collectives` for the collectives — one
schedule per verb, shaped by the communicator's size and node map and
shared by the object (lowercase) and buffer (uppercase) verbs through a
payload codec.

Every world is started by one pipeline, :func:`repro.mpi.executor.launch`:
``config.backend`` picks rank threads or OS processes
(:mod:`repro.mpi.procbackend` — forked, exec'd, or parked in a
:class:`RankPool` between jobs; each with its share of the host's cores
for compute threads, :mod:`repro.mpi.corebudget`); :func:`run_spmd` is
its SPMD front door.

Typical SPMD use::

    from repro import mpi

    def main(comm):
        data = comm.allgather(comm.rank ** 2)
        return data

    results = mpi.run_spmd(4, main)
"""

from repro.mpi.cartesian import CartComm, create_cart, dims_create
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB, UNDEFINED
from repro.mpi.group import Group
from repro.mpi.comm import Comm, make_world_comm
from repro.mpi.executor import ExecRank, ProcResult, launch, run_spmd, run_world
from repro.mpi.faults import FaultSchedule, SimulatedCrash, random_schedule
from repro.mpi.reduce_ops import (
    BAND,
    BOR,
    BXOR,
    LAND,
    LOR,
    LXOR,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    Op,
)
from repro.mpi.sched import (
    ExplorationReport,
    MatchSchedule,
    MatchTrace,
    SeedOutcome,
    TraceRecorder,
    explore,
    repro_command,
)
from repro.mpi.procbackend import ProcessWorld, RankPool
from repro.mpi.progress import Completion, ProgressEngine, RankProgress, Waitset
from repro.mpi.request import Request
from repro.mpi.serialization import Blob
from repro.mpi.status import Status
from repro.mpi.topology import CommHierarchy
from repro.mpi.transport import FrameDecoder, SocketTransport, Transport, pack_frame
from repro.mpi.world import TrafficStats, World, WorldConfig

__all__ = [
    "CartComm",
    "create_cart",
    "dims_create",
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "TAG_UB",
    "UNDEFINED",
    "Group",
    "Comm",
    "make_world_comm",
    "ExecRank",
    "ProcResult",
    "launch",
    "run_spmd",
    "run_world",
    "FaultSchedule",
    "SimulatedCrash",
    "random_schedule",
    "Op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "LXOR",
    "BAND",
    "BOR",
    "BXOR",
    "MAXLOC",
    "MINLOC",
    "MatchSchedule",
    "MatchTrace",
    "TraceRecorder",
    "ExplorationReport",
    "SeedOutcome",
    "explore",
    "repro_command",
    "Blob",
    "Completion",
    "ProgressEngine",
    "RankProgress",
    "Waitset",
    "ProcessWorld",
    "RankPool",
    "Transport",
    "SocketTransport",
    "CommHierarchy",
    "FrameDecoder",
    "pack_frame",
    "Request",
    "Status",
    "TrafficStats",
    "World",
    "WorldConfig",
]
