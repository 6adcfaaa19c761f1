"""``mphchild`` — the exec-mode rank of a process-backend MPH job.

``mphrun --backend process`` spawns one of these per world rank::

    python -m repro.tools.mphchild --rank 3 --nprocs 8 --family unix \\
           --sockdir /tmp/... --fanout 8

This is the paper's MIME property made real: every rank is an
independently ``exec``'d executable that knows *nothing* at startup
except the job's socket directory (where the rendezvous and every
control socket live), which rank of how many it plays, and the shape of
the bootstrap tree.  Everything else — the peer address map, the
:class:`~repro.mpi.world.WorldConfig`, and *what program to run* — comes
down the control socket in the welcome frame's per-rank ``meta`` dict:

``programs``
    Importable module spec (``pkg.module`` or ``pkg.module:ATTR``)
    resolved exactly like ``mphrun --programs``.
``program``
    Program name to look up in that registry.
``exe_index`` / ``local_index`` / ``argv`` / ``vars`` / ``workdir`` /
``registry``
    The :class:`~repro.launcher.job.JobEnv` fields, as in the thread
    backend — except ``output`` is a real
    :class:`~repro.core.redirect.ProcessOutput` (fd-level §5.4
    redirection), because this process owns its stdout.

The child's stdout/stderr are whatever ``mphrun`` wired up (a per-process
log file under ``--log-dir``); its exit status is 0 whenever the
bootstrap succeeded — a failing *program* is reported in-band through
the result frame, while a failed bootstrap exits nonzero so the parent
can name the dead component.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.redirect import ProcessOutput
from repro.launcher.job import JobEnv
from repro.mpi.procbackend import child_session


def _resolve(meta: dict):
    """Build the rank entry point from the welcome metadata."""
    from repro.tools.mphrun import _load_programs

    name = meta["program"]
    if meta.get("pool"):
        # --pool reserve rank: runs the built-in parking program, never a
        # registry lookup (POOL_PROGRAM is not a user program name).
        from repro.launcher.job import reserve_pool_program as fn
    else:
        programs = _load_programs(meta["programs"])
        if name not in programs:
            raise KeyError(
                f"program {name!r} not found in {meta['programs']!r} "
                f"(has: {sorted(programs)})"
            )
        fn = programs[name]
    workdir = meta.get("workdir")
    env = JobEnv(
        program=name,
        exe_index=meta["exe_index"],
        local_index=meta["local_index"],
        argv=tuple(meta.get("argv", ())),
        vars=dict(meta.get("vars", {})),
        workdir=Path(workdir) if workdir else None,
        registry=meta.get("registry"),
        output=ProcessOutput(),
    )
    return fn, env


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(prog="mphchild")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument(
        "--nprocs", type=int, required=True, help="world size (shapes the relay tree)"
    )
    parser.add_argument(
        "--family",
        choices=("unix", "tcp"),
        default="unix",
        help="socket family of this rank's data listener",
    )
    parser.add_argument(
        "--sockdir",
        required=True,
        help="the job's socket directory (rendezvous and control sockets)",
    )
    parser.add_argument(
        "--fanout", type=int, default=8, help="arity of the bootstrap relay tree"
    )
    args = parser.parse_args(argv)

    def run(comm, meta):
        fn, env = _resolve(meta)
        return fn(comm, env)

    child_session(
        args.rank, args.nprocs, args.family, args.sockdir, run, fanout=args.fanout
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
