"""MPMD job execution: the environment MPH's handshake is born into.

An :class:`MpmdJob` reproduces the startup condition of Section 6 of the
paper: *K* executables are loaded onto disjoint subsets of one world, every
process sees only the shared ``COMM_WORLD`` and its own global rank, and no
process knows which executables occupy the other ranks.  Resolving that
ignorance is exactly MPH's job.

"Executables" here are Python callables with the signature
``fn(comm_world, env) -> result`` where *env* is a per-process
:class:`JobEnv` carrying the program's argv, the job's environment
variables, the registration file, and the multi-channel output manager.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import LaunchError
from repro.launcher.cmdfile import (
    ExecutableSpec,
    ProgramRegistry,
    load_programs,
    resolve_programs,
)
from repro.launcher.rankmap import assign_ranks
from repro.launcher.smp import Machine, Placement
from repro.mpi.executor import ExecRank, ProcResult, launch
from repro.mpi.procbackend import RankPool
from repro.mpi.world import WorldConfig
from repro.core.redirect import MultiChannelOutput, ProcessOutput


@dataclass
class JobEnv:
    """Per-process view of the job environment (argv, env vars, registry).

    Attributes
    ----------
    program :
        Name of the executable this process runs.
    exe_index :
        Index of the executable in command-file order.
    local_index :
        Executable-local processor index of this process (ascending world
        rank within the executable — the launcher convention).
    argv :
        Command-line arguments of the executable.
    vars :
        The job's environment variables (e.g. ``MPH_LOG_<NAME>`` overrides
        for Section 5.4 output redirection).  Shared, treat as read-only.
    workdir :
        Directory for log files and other job outputs.
    registry :
        The MPH registration input — a :class:`repro.core.registry.Registry`,
        a path, or raw text; handed to the handshake unchanged.
    output :
        The job's multi-channel output manager (Section 5.4).
    """

    program: str
    exe_index: int
    local_index: int
    argv: tuple[str, ...] = ()
    vars: dict[str, str] = field(default_factory=dict)
    workdir: Optional[Path] = None
    registry: Any = None
    output: Optional[MultiChannelOutput] = None


@dataclass
class LaunchPlan:
    """Where every process of a job goes — computed once per job
    (:attr:`MpmdJob.plan`), before anything is spawned, and followed by
    every launch path."""

    #: Executable specs in command-file order.
    specs: list[ExecutableSpec]
    #: ``assignment[i]`` — world ranks of executable *i*.
    assignment: list[list[int]]
    #: Machine placement, when a machine was supplied.
    placement: Optional[Placement]
    #: Per world rank: its :class:`JobEnv` (everything but ``output``).
    envs: list[JobEnv]
    #: Per world rank: a name unique within the job, for failure reports
    #: and the process backend's log file — ``<program>.<local_index>``,
    #: with executables that share a program name told apart as
    #: ``<program>@<exe_index>``.
    labels: list[str]


def plan_job(
    specs: Sequence[ExecutableSpec],
    rank_policy: str = "block",
    machine: Optional[Machine] = None,
    **job_env,
) -> LaunchPlan:
    """Plan a job: assign world ranks under *rank_policy*, place them on
    *machine* (validating the allocation policy), and give every rank its
    label and its :class:`JobEnv` — the one place one is built; *job_env*
    are the job-wide fields (``vars``, ``workdir``, ``registry``)."""
    sizes = [s.nprocs for s in specs]
    assignment = assign_ranks(sizes, rank_policy)
    placement = machine.place(sizes, assignment) if machine else None
    stems = [s.program for s in specs]
    while len(set(stems)) < len(stems):
        clashes = Counter(stems)
        stems = [f"{stem}@{i}" if clashes[stem] > 1 else stem for i, stem in enumerate(stems)]
    envs: list[JobEnv] = [None] * sum(sizes)  # type: ignore[list-item]
    labels = [""] * sum(sizes)
    for exe_index, (spec, ranks) in enumerate(zip(specs, assignment)):
        for local_index, world_rank in enumerate(ranks):
            envs[world_rank] = JobEnv(spec.program, exe_index, local_index, spec.argv, **job_env)
            labels[world_rank] = f"{stems[exe_index]}.{local_index}"
    return LaunchPlan(list(specs), assignment, placement, envs, labels)


#: Accepted "executable" inputs for :class:`MpmdJob`: a full spec (resolved
#: through a program registry), or ``(callable, nprocs)`` /
#: ``(callable, nprocs, argv)`` shorthand.
ExecutableLike = Union[ExecutableSpec, tuple]


@dataclass
class JobResult(LaunchPlan):
    """Outcome of an MPMD job: the plan it followed, and how each rank ended."""

    #: Per-world-rank outcomes.
    procs: list[ProcResult]

    def values(self) -> list[Any]:
        """Per-world-rank return values."""
        return [p.value for p in self.procs]

    def failures(self) -> list[tuple[int, str, BaseException]]:
        """Every failed process as ``(world_rank, program, exception)``.

        Covers failures that do **not** abort the job — e.g. a rank dead
        by survivable fail-stop crash while its siblings completed — so
        callers (``mphrun``) can refuse to report success when any
        component failed.
        """
        return [
            (p.rank, self.envs[p.rank].program, p.exception)
            for p in self.procs
            if p.exception is not None
        ]

    def by_executable(self, which: Union[int, str]) -> list[Any]:
        """Return values of one executable's processes, in local order.

        *which* is the executable index or program name (the first match
        when several executables share a name).
        """
        if isinstance(which, str):
            for i, spec in enumerate(self.specs):
                if spec.program == which:
                    which = i
                    break
            else:
                raise LaunchError(f"no executable named {which!r}")
        return [self.procs[r].value for r in self.assignment[which]]


class MpmdJob:
    """A multi-executable job on one simulated world.

    Parameters
    ----------
    executables :
        The job's executables, in command-file order.  Each item is an
        :class:`ExecutableSpec` (requires *programs* for name resolution)
        or a ``(callable, nprocs[, argv])`` tuple.
    programs :
        Program registry for resolving spec names to callables — a
        mapping, or the import spec of one (``"pkg.module[:ATTR]"``, see
        :func:`~repro.launcher.cmdfile.load_programs`).  Given by import
        spec, the process backend ``exec``s each such rank as its own
        ``python -m repro.tools.mphchild``, which resolves its program
        itself — the launcher ships names, never code.
    rank_policy :
        Global-rank assignment policy (see :mod:`repro.launcher.rankmap`).
    machine :
        Optional :class:`~repro.launcher.smp.Machine`; when given, the job
        is placed under the platform allocation policy before running and
        the placement is validated and returned in the result.  The
        placement is also the world's node map: which ranks share a node
        for the collectives' two-level stars and the ``mph://node/<k>``
        psets.  Without a machine every rank is on one node.
    config :
        :class:`~repro.mpi.world.WorldConfig` for the substrate.
    env_vars, workdir, registry :
        Propagated into every process's :class:`JobEnv`.
    namespace :
        Optional per-job namespace for the process backend's rendezvous
        directory and shm segments (see
        :func:`repro.mpi.procbackend.rendezvous_prefix`).
    log_dir :
        Process backend only: directory for per-process ``<label>.log``
        files (``<program>.<local_index>.log``; OS-level fd redirection).
    pool :
        Process backend only: a :func:`rank_pool` whose parked processes
        play the ranks of every program it can name, and which takes the
        job's processes back when every rank reports ok — a launch that
        is a message per rank instead of a fork.  The programs are given
        as callables (an import spec asks for ``exec``, the opposite).
    """

    def __init__(
        self,
        executables: Sequence[ExecutableLike],
        *,
        programs: Union[ProgramRegistry, str, None] = None,
        rank_policy: str = "block",
        machine: Optional[Machine] = None,
        config: Optional[WorldConfig] = None,
        env_vars: Optional[dict[str, str]] = None,
        workdir: Optional[Union[str, Path]] = None,
        registry: Any = None,
        namespace: Optional[str] = None,
        log_dir: Optional[Union[str, Path]] = None,
        pool: Optional[RankPool] = None,
    ):
        if not executables:
            raise LaunchError("an MPMD job needs at least one executable")
        if pool is not None and isinstance(programs, str):
            raise LaunchError(
                "programs given by import spec are exec'd, each rank a fresh "
                "interpreter; a pool serves programs given as callables"
            )
        self.specs: list[ExecutableSpec] = []
        self.fns: list[Callable] = []
        for item in executables:
            if isinstance(item, ExecutableSpec):
                spec, fn = item, None  # named in the registry: bound below
            elif isinstance(item, tuple) and 2 <= len(item) <= 3 and callable(item[0]):
                fn = item[0]
                argv = tuple(item[2]) if len(item) == 3 else ()
                spec = ExecutableSpec(getattr(fn, "__name__", "program"), item[1], argv)
            else:
                raise LaunchError(
                    f"cannot interpret executable {item!r}; pass an ExecutableSpec or "
                    "(callable, nprocs[, argv])"
                )
            self.specs.append(spec)
            self.fns.append(fn)
        #: Per executable: the import spec a fresh interpreter can resolve
        #: its program from — it is named, in a registry given by name.
        self._import_specs = [
            programs if fn is None and isinstance(programs, str) else None for fn in self.fns
        ]
        named = [spec for spec, fn in zip(self.specs, self.fns) if fn is None]
        if named:
            if programs is None:
                raise LaunchError(
                    "ExecutableSpec entries need a `programs` registry for name resolution"
                )
            # Bound in the launcher even when the ranks will resolve their
            # own, so a typo'd module or program fails here instead of in
            # every child.
            bound = iter(bind_programs(named, programs))
            self.fns = [fn if fn is not None else next(bound) for fn in self.fns]

        self.rank_policy = rank_policy
        self.machine = machine
        self.config = config
        self.env_vars = dict(env_vars or {})
        self.workdir = Path(workdir) if workdir is not None else None
        self.registry = registry
        self.namespace = namespace
        self.log_dir = str(log_dir) if log_dir is not None else None
        self.pool = pool
        #: The stdout proxy rank *threads* share (paper §5.4); a rank that
        #: is its own process redirects its own fd 1 instead.
        self.output = MultiChannelOutput()

    @property
    def world_size(self) -> int:
        """Total MPI processes across all executables."""
        return sum(s.nprocs for s in self.specs)

    @cached_property
    def plan(self) -> LaunchPlan:
        """The job's :class:`LaunchPlan` (see :func:`plan_job`), made on
        first use and kept: what is shown, launched and reported is one
        object."""
        return plan_job(
            self.specs,
            self.rank_policy,
            self.machine,
            vars=self.env_vars,
            workdir=self.workdir,
            registry=self.registry,
        )

    def run(self, timeout: float = 120.0) -> JobResult:
        """Launch the job and run it to completion.

        Plans the job, then enters the one launch pipeline
        (:func:`repro.mpi.executor.launch`) with the plan's placement as
        the world's node map.  With ``config.backend ==
        "process"`` every rank is an OS process: components genuinely own
        their stdout (§5.4 redirection becomes a real ``dup2``), and a
        rank that dies without reporting fails the job with its
        component named.
        """
        placement = self.plan.placement
        node_map = None
        if placement is not None:
            node_map = [placement.node_of_rank(r) for r in range(self.world_size)]
        procs = launch(
            self.world_size,
            self.ranks(),
            config=self.config,
            timeout=timeout,
            labels=self.plan.labels,
            namespace=self.namespace,
            log_dir=self.log_dir,
            pool=self.pool,
            node_map=node_map,
        )
        return JobResult(**vars(self.plan), procs=procs)

    def ranks(self) -> list[Callable]:
        """Every world rank's ``entry(comm)``, as the launch pipeline
        takes them: an :class:`~repro.mpi.executor.ExecRank` whose meta
        is ``(name, env)`` where another process can rebuild the rank."""
        ranks: list[Callable] = []
        for env in self.plan.envs:
            fn = self.fns[env.exe_index]
            entry = _rank_entry(fn, env, self.output)
            # What another process can rebuild the rank from, if anything:
            # the registry's import spec (exec) or the pool's name for fn.
            name = self._import_specs[env.exe_index] or (self.pool and self.pool.name(fn))
            if name is not None:
                entry = ExecRank(entry, (name, env))
            ranks.append(entry)
        return ranks


def _rank_entry(
    fn: Callable, env: JobEnv, shared_output: Optional[MultiChannelOutput] = None
) -> Callable:
    """The pipeline's ``entry(comm)`` for a program ``fn(comm, env)``."""

    def entry(comm):
        # A rank with a transport is its own OS process (a thread world
        # delivers mailbox to mailbox): it owns fd 1, so §5.4 redirection
        # is real fd-level redirection.  Rank threads share the job's
        # channels on the process's one stdout proxy, which holds
        # sys.stdout for as long as any job's rank thread runs.
        output = ProcessOutput() if comm.world.transport is not None else shared_output
        with output:
            return fn(comm, replace(env, output=output))

    return entry


def exec_rank_entry(meta: tuple) -> Callable:
    """The ``entry(comm)`` of an exec'd rank, rebuilt in its own
    interpreter from the ``(import spec, env)`` meta :meth:`MpmdJob.run`
    shipped: the program is resolved *here*, by name."""
    programs, env = meta
    (fn,) = bind_programs([ExecutableSpec(env.program, 1)], programs)
    return _rank_entry(fn, env)


def bind_programs(
    specs: Sequence[ExecutableSpec], programs: Union[ProgramRegistry, str]
) -> list[Callable]:
    """Bind each spec's program name to its callable; *programs* is a
    registry or the import spec of one."""
    if isinstance(programs, str):
        programs = load_programs(programs)
    return resolve_programs(specs, programs)


def rank_pool(programs: ProgramRegistry) -> RankPool:
    """A pool of parked rank processes (``MpmdJob(pool=)``) that can play
    any program of *programs* under any :class:`JobEnv`: what its
    processes are sent is ``(name, env)``."""
    return RankPool(programs, _rank_entry)


def mph_run(
    executables: Sequence[ExecutableLike],
    registry: Any = None,
    **job_kwargs,
) -> JobResult:
    """Convenience one-call launcher: build an :class:`MpmdJob` carrying
    *registry* and run it.

    >>> from repro import mph_run, components_setup
    >>> def atm(world, env):
    ...     mph = components_setup(world, "atmosphere", env=env)
    ...     return mph.comp_name()
    >>> def ocn(world, env):
    ...     mph = components_setup(world, "ocean", env=env)
    ...     return mph.comp_name()
    >>> reg = "BEGIN\\natmosphere\\nocean\\nEND"
    >>> result = mph_run([(atm, 2), (ocn, 2)], registry=reg)
    >>> result.by_executable("atm")
    ['atmosphere', 'atmosphere']
    """
    timeout = job_kwargs.pop("timeout", 120.0)
    job = MpmdJob(executables, registry=registry, **job_kwargs)
    return job.run(timeout=timeout)
