"""``mphrun`` — launch a multi-executable MPH job from the command line.

The front-end the paper's platforms provide as ``poe -pgmmodel mpmd
-cmdfile ...`` or ``mpirun -np 16 atm : -np 8 ocn``, for this simulator::

    mphrun --registry processors_map.in --programs my_models \\
           --spec "-np 4 atmosphere : -np 2 ocean : -np 1 coupler"

    mphrun --registry processors_map.in --programs my_models:PROGRAMS \\
           --cmdfile job.cmd --rank-policy round_robin

``--programs`` names an importable module; program names from the launch
spec are resolved against its ``PROGRAMS`` dict (or a different attribute
given after ``:``).  Each program is a callable ``fn(world, env)``.

Exit status: 0 on success, 1 on any failure (parse error, missing program,
component handshake failure, rank exception, deadlock) with the diagnosis
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.launcher.cmdfile import parse_mpirun_spec, parse_poe_cmdfile
from repro.launcher.job import MpmdJob
from repro.launcher.smp import Machine
from repro.mpi.world import WorldConfig


def build_parser() -> argparse.ArgumentParser:
    """The ``mphrun`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="mphrun",
        description="Launch a multi-component multi-executable MPH job.",
    )
    launch = parser.add_mutually_exclusive_group(required=True)
    launch.add_argument(
        "--cmdfile",
        type=Path,
        help="poe-style command file: one line per MPI task naming its program",
    )
    launch.add_argument(
        "--spec",
        help="mpirun-style MPMD spec: '-np 4 atm : -np 2 ocn'",
    )
    parser.add_argument(
        "--programs",
        required=True,
        help="importable module providing the program registry; "
        "'pkg.module' (uses its PROGRAMS dict) or 'pkg.module:ATTR'",
    )
    parser.add_argument(
        "--registry",
        type=Path,
        help="the MPH registration file (processors_map.in)",
    )
    parser.add_argument(
        "--rank-policy",
        choices=("block", "round_robin"),
        default="block",
        help="global-rank assignment policy (default: block)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=0,
        help="validate placement on an SMP machine with this many nodes",
    )
    parser.add_argument(
        "--cpus-per-node",
        type=int,
        default=16,
        help="CPUs per SMP node when --nodes is given (default: 16)",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        help="directory for component log files",
    )
    parser.add_argument(
        "--env",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="job environment variable (repeatable), e.g. MPH_LOG_OCEAN=o.log",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="wall-clock budget in seconds (default: 300)",
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="execution backend: 'thread' simulates ranks as threads of "
        "this process; 'process' execs every rank as its own "
        "'python -m repro.tools.mphchild' over the socket transport "
        "(true multi-executable, as on the paper's platforms)",
    )
    parser.add_argument(
        "--transport",
        choices=("auto", "unix", "shm"),
        default="auto",
        help="process backend: wire between ranks — 'auto' and 'unix' "
        "are Unix-domain sockets, the path the benchmark workloads "
        "measure fastest; 'shm' asks for mmap rings and zero-copy pages "
        "between same-node pairs, sockets across nodes (default: auto)",
    )
    parser.add_argument(
        "--log-dir",
        type=Path,
        help="process backend: directory for per-process stdout logs "
        "(<program>.<local_index>.log)",
    )
    parser.add_argument(
        "--show-assignment",
        action="store_true",
        help="print the planned executable -> world-rank assignment before running",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-executable summary"
    )
    return parser


def _parse_env(pairs: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--env expects KEY=VALUE, got {pair!r}")
        out[key] = value
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmdfile is not None:
            specs = parse_poe_cmdfile(args.cmdfile.read_text())
        else:
            specs = parse_mpirun_spec(args.spec)
        try:
            # One config for both backends.  --nodes doubles as the world
            # topology: the same SMP node count that validates placement
            # also scopes which rank pairs the shm transport treats as
            # same-node (rings) vs cross-node (sockets), and where a
            # collective puts its one representative per node.
            config = WorldConfig(
                backend=args.backend,
                transport=args.transport,
                nodes=args.nodes or None,
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from None
        # The launcher ships the --programs *name*: a process-backend rank
        # is exec'd and resolves its own program, a thread runs what this
        # interpreter resolved — MpmdJob checks both here, up front.
        job = MpmdJob(
            specs,
            programs=args.programs,
            rank_policy=args.rank_policy,
            machine=(
                Machine.homogeneous(args.nodes, args.cpus_per_node) if args.nodes else None
            ),
            config=config,
            env_vars=_parse_env(args.env),
            workdir=args.workdir,
            registry=args.registry,
            log_dir=args.log_dir,
        )
        if args.show_assignment:
            assignment = job.plan.assignment
            print(f"planned assignment ({args.rank_policy}):")
            for i, spec in enumerate(specs):
                ranks = assignment[i]
                print(f"  [{i}] {spec.program:<16} world ranks {ranks[0]}..{ranks[-1]}"
                      if ranks == list(range(ranks[0], ranks[-1] + 1))
                      else f"  [{i}] {spec.program:<16} world ranks {ranks}")
        result = job.run(timeout=args.timeout)
    except ReproError as exc:
        print(f"mphrun: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - rank exceptions surface here
        print(f"mphrun: job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    # A job can "complete" with per-rank failures that did not abort the
    # world (e.g. a component dead by survivable fail-stop crash).  That
    # must not masquerade as success: name every failed component and
    # fail the whole job.
    failed = result.failures()
    if failed:
        for rank, program, exc in failed:
            print(
                f"mphrun: component {program!r} (world rank {rank}) failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
        return 1

    if not args.quiet:
        total = sum(s.nprocs for s in result.specs)
        print(f"mphrun: job completed on {total} processes, "
              f"{len(result.specs)} executables ({args.rank_policy} ranks)")
        for i, spec in enumerate(result.specs):
            values = result.by_executable(i)
            shown = values[0] if values else None
            # What the executable cost: CPU summed over its ranks (of the
            # whole process where a rank is one), wall of its slowest.
            procs = [result.procs[r] for r in result.assignment[i]]
            cpu = sum(p.cpu_seconds for p in procs)
            wall = max(p.wall_seconds for p in procs)
            print(f"  [{i}] {spec.program:<16} x{spec.nprocs:<3} "
                  f"ranks {result.assignment[i][0]}..{result.assignment[i][-1]} "
                  f"cpu {cpu:.3f}s wall {wall:.3f}s -> {shown!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
