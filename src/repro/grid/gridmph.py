"""MPH over the grid on one world, as MPICH-G2 does it.

:func:`run_grid` co-allocates the clusters as one job: each rank runs its
program on its site's split of the world — to the program, the split *is*
``COMM_WORLD`` — under its own cluster's registry.  :func:`grid_setup`
then tells every process, with one allgather over a duplicate of the
whole world, which world ranks play each cluster's components, and
:class:`GridMPH` addresses them by name.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

from repro.core.mph import MPH
from repro.errors import MPIError, ReproError
from repro.launcher.job import JobEnv, JobResult, MpmdJob
from repro.launcher.smp import Machine
from repro.mpi.comm import Comm, make_world_comm
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.faults import SimulatedCrash
from repro.mpi.serialization import Blob
from repro.mpi.status import Status
from repro.mpi.world import WorldConfig

#: The :class:`~repro.launcher.job.JobEnv` variables ``run_grid`` writes:
#: the rank's cluster, and the link model as JSON ``[latency, bandwidth]``.
CLUSTER_VAR = "MPH_GRID_CLUSTER"
LINK_VAR = "MPH_GRID_LINK"


class GridDirectory:
    """The cross-grid component map (identical on every process), built
    from each world rank's ``(cluster, [(component, local rank), ...])``."""

    def __init__(self, table: list[tuple[str, list[tuple[str, int]]]]):
        #: The cluster of each world rank.
        self.site_of = tuple(cluster for cluster, _ in table)
        by_local: dict[tuple[str, str], dict[int, int]] = {}
        for world_rank, (cluster, comps) in enumerate(table):
            for name, local in comps:
                by_local.setdefault((cluster, name), {})[local] = world_rank
        self._ranks = {key: tuple(m[i] for i in range(len(m))) for key, m in by_local.items()}
        order = sorted(self._ranks, key=lambda key: (key[0], self._ranks[key][0]))
        #: ``(cluster, component, size)`` of every component, by cluster
        #: name, then by where the component starts in the world.
        self.components = tuple((c, n, len(self._ranks[c, n])) for c, n in order)

    def lookup(self, cluster: str, component: str) -> tuple[int, ...]:
        """The world ranks of ``(cluster, component)``, in local-rank order."""
        if (cluster, component) not in self._ranks:
            known = sorted(set(self.site_of))
            what = f"no component {component!r} on" if cluster in known else "unknown"
            raise ReproError(f"{what} cluster {cluster!r}; clusters in this grid run: {known}")
        return self._ranks[cluster, component]


@dataclass
class GridMPH:
    """A process's handle for cross-grid messaging: a destination on its
    own cluster is an ordinary send of the local :class:`MPH` handle, any
    other one message on :attr:`world`, a duplicate of the whole world.
    The link model is a visibility time: the sender stamps ``now +
    latency + nbytes / bandwidth`` on the message, the receiver waits it
    out."""

    mph: MPH
    cluster: str
    world: Comm
    directory: GridDirectory
    latency: float = 0.0
    bandwidth: Optional[float] = None

    def send(self, obj: Any, cluster: str, component: str, local_rank: int, tag: int = 0) -> None:
        """Send *obj* to ``(cluster, component, local_rank)``."""
        ranks = self.directory.lookup(cluster, component)
        if not 0 <= local_rank < len(ranks):
            raise ReproError(
                f"component {component!r} on {cluster!r} has {len(ranks)} processes; "
                f"local rank {local_rank} out of range"
            )
        if cluster == self.cluster:
            self.mph.send(obj, component, local_rank, tag)
            return
        delay = self.latency
        if self.bandwidth is not None:
            delay += Blob.encode(obj).nbytes / self.bandwidth
        self.world.send((time.monotonic() + delay, obj), ranks[local_rank], tag)

    def recv(self, tag: Optional[int] = None) -> tuple[Any, str, int]:
        """The next cross-grid message to this process (with *tag*, or
        any) once the link has delivered it, as ``(obj, src_cluster,
        tag)``.  Intra-cluster messages arrive through ``mph.recv``; a
        receive nobody answers is the world's deadlock."""
        status = Status()
        visible_at, obj = self.world.recv(ANY_SOURCE, ANY_TAG if tag is None else tag, status)
        time.sleep(max(0.0, visible_at - time.monotonic()))
        return obj, self.directory.site_of[status.source], status.tag

    def remote_component_size(self, cluster: str, component: str) -> int:
        """Processor count of a component anywhere on the grid."""
        return len(self.directory.lookup(cluster, component))


def grid_setup(mph: MPH, env: JobEnv) -> GridMPH:
    """Extend a completed site handshake (*mph*) across the grid: collective
    over every process of every cluster of a :func:`run_grid` launch."""
    site = mph.global_world
    # A rebuilt world handle numbers its collectives from 0 again: the
    # split's gather (this dup's tag) is all received before rank 0 leaves
    # it, and the split's scatter carries the next tag.
    world = make_world_comm(site.world, site.group.world_id(site.rank)).dup()
    cluster = env.vars[CLUSTER_VAR]
    mine = [(name, mph.local_proc_id(name)) for name in mph.comp_names()]
    directory = GridDirectory(world.allgather((cluster, mine)))
    return GridMPH(mph, cluster, world, directory, *json.loads(env.vars[LINK_VAR]))


@dataclass
class ClusterSpec:
    """One cluster of a grid run: its executables, each ``(callable,
    nprocs[, argv])``, and its registry.  A program finds its cluster's
    name in ``env.vars['MPH_GRID_CLUSTER']``."""

    name: str
    executables: Sequence[Any]
    registry: Any = None


class SiteFailure(SimulatedCrash):
    """How a rank of a failing site dies under ``allow_partial``: a
    fail-stop death, so the other sites run on.  It carries the site's
    exception as :attr:`error`, since pickling drops ``__cause__``."""

    def __init__(self, site: str, error: BaseException):
        super().__init__(site, error)
        self.error = error


def _check_launch(clusters: Sequence[ClusterSpec], latency: Any, bandwidth: Any) -> None:
    """Refuse a grid launch that cannot run, before any rank starts."""

    def finite(x: Any) -> bool:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)

    if not (finite(latency) and latency >= 0):
        raise ReproError(f"latency must be a finite number >= 0, got {latency!r}")
    if bandwidth is not None and not (finite(bandwidth) and bandwidth > 0):
        raise ReproError(f"bandwidth must be None or a finite number > 0, got {bandwidth!r}")
    names = [spec.name for spec in clusters]
    if not names or len(set(names)) < len(names) or not all(isinstance(n, str) and n for n in names):
        raise ReproError(f"cluster names must be non-empty and distinct: {names}")
    for spec in clusters:
        if not spec.executables:
            raise ReproError(f"cluster {spec.name!r} has no executables")
        for item in spec.executables:
            if not (isinstance(item, tuple) and 2 <= len(item) <= 3 and callable(item[0])):
                raise ReproError(
                    f"grid cluster executables must be (callable, nprocs[, argv]); got {item!r}"
                )


def _site_program(fn, site: int, spec: ClusterSpec, exe_index: int, link: str, allow_partial: bool):
    """*fn* of cluster *spec* as a program of the whole job."""

    def program(world, env):
        comm = world.split(site)
        site_vars = {**env.vars, CLUSTER_VAR: spec.name, LINK_VAR: link}
        env = replace(env, exe_index=exe_index, registry=spec.registry, vars=site_vars)
        try:
            return fn(comm, env)
        except Exception as exc:
            if not allow_partial or isinstance(exc, SimulatedCrash):
                raise
            raise SiteFailure(spec.name, exc) from exc

    program.__name__ = getattr(fn, "__name__", "program")
    return program


def _site_result(result: JobResult, exes: range) -> JobResult:
    """The part of *result* that executables *exes* ran, ranked as their
    site's communicator ranks them."""
    ranks = sorted(r for i in exes for r in result.assignment[i])
    pos = {r: k for k, r in enumerate(ranks)}
    return JobResult(
        specs=[result.specs[i] for i in exes],
        assignment=[[pos[r] for r in result.assignment[i]] for i in exes],
        placement=None,
        envs=[result.envs[r] for r in ranks],
        labels=[result.labels[r] for r in ranks],
        procs=[replace(result.procs[r], rank=pos[r]) for r in ranks],
    )


def run_grid(
    clusters: Sequence[ClusterSpec],
    latency: float = 0.0,
    bandwidth: Optional[float] = None,
    timeout: float = 120.0,
    *,
    config: Optional[WorldConfig] = None,
    machine: Optional[Machine] = None,
    allow_partial: bool = False,
) -> dict[str, Any]:
    """Run every cluster as one :class:`~repro.launcher.job.MpmdJob`
    (under *config*, on *machine*); returns each cluster's
    :class:`~repro.launcher.job.JobResult` by name.

    *latency* (seconds, one way) and *bandwidth* (bytes/second, ``None``:
    unlimited) model the link of cross-site :class:`GridMPH` messages.  A
    failing cluster fails the run, or with ``allow_partial=True`` maps to
    the exception it died of (the first is raised if every cluster fails).
    """
    _check_launch(clusters, latency, bandwidth)
    link = json.dumps([latency, bandwidth])
    executables, exes_of = [], []
    for site, spec in enumerate(clusters):
        exes_of.append(range(len(executables), len(executables) + len(spec.executables)))
        for exe_index, (fn, *rest) in enumerate(spec.executables):
            program = _site_program(fn, site, spec, exe_index, link, allow_partial)
            executables.append((program, *rest))
    try:
        result = MpmdJob(executables, config=config, machine=machine).run(timeout=timeout)
    except SiteFailure as exc:  # every cluster failed
        raise exc.error from None
    results: dict[str, Any] = {}
    for spec, exes in zip(clusters, exes_of):
        part = _site_result(result, exes)
        errors = [p.exception.error for p in part.procs if isinstance(p.exception, SiteFailure)]
        # The site's own error before what its siblings saw of it.
        errors.sort(key=lambda exc: isinstance(exc, MPIError))
        results[spec.name] = errors[0] if errors else part
    return results
