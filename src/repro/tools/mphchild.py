"""``mphchild`` — the exec-mode rank of a process-backend MPH job.

``mphrun --backend process`` spawns one of these per world rank::

    python -m repro.tools.mphchild --rank 3 --nprocs 8 --sockdir /tmp/...

This is the paper's MIME property made real: every rank is an
independently ``exec``'d executable that knows *nothing* at startup
except the job's socket directory (where the rendezvous socket lives)
and which rank of how many it plays.  It connects to the rendezvous
once and says hello; everything else — the peer address map, the
:class:`~repro.mpi.world.WorldConfig`, the node map, and *what program
to run* —
comes back on that connection in the welcome frame's per-rank *meta*,
which
:func:`repro.launcher.job.exec_rank_entry` turns back into the rank's
entry point — a pair of:

* the importable module spec (``pkg.module`` or ``pkg.module:ATTR``),
  resolved exactly like ``mphrun --programs``;
* this rank's :class:`~repro.launcher.job.JobEnv` as the launcher planned
  it: ``program`` is the name to look up in that registry, and
  ``exe_index`` / ``local_index`` / ``argv`` / ``vars`` / ``workdir`` /
  ``registry`` are as in the thread backend — except ``output`` is a real
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
from typing import Optional, Sequence

from repro.launcher.job import exec_rank_entry
from repro.mpi.procbackend import child_session


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(prog="mphchild")
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--nprocs", type=int, required=True, help="world size")
    parser.add_argument(
        "--sockdir",
        required=True,
        help="the job's socket directory (where the rendezvous socket is)",
    )
    args = parser.parse_args(argv)

    child_session(
        args.rank, args.nprocs, args.sockdir, lambda comm, meta: exec_rank_entry(meta)(comm)
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
