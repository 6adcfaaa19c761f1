"""Bootstrap rendezvous at width, with simulated ranks.

:func:`bootstrap_seconds` drives the real protocol code —
:func:`~repro.mpi.bootstrap.serve_rendezvous` and
:func:`~repro.mpi.bootstrap.child_rendezvous` — with *simulated* ranks:
one thread per rank over real Unix sockets, no child processes and no
data plane, so a single host can form worlds of hundreds to thousands of
ranks.  Data addresses in the hello frames are fake (never dialled), and the
clock covers the whole rendezvous: thread spawn through every rank
holding the peer map and the launcher connection that would carry its
result.

``tests/test_scale.py::TestInitScale`` (the ``init-scale`` CI job) runs
the 512-rank case as a protocol-correctness check at width.
EXPERIMENTS.md ("One rendezvous hop") records the sweep (64–2048 ranks)
against the relay tree this protocol replaced.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time

from repro.mpi.bootstrap import child_rendezvous, serve_rendezvous
from repro.mpi.transport import make_listener
from repro.mpi.world import WorldConfig

#: Simulated ranks only park on sockets, so they run on tiny stacks —
#: 4096 threads at the interpreter default (8 MiB) would be 32 GiB of
#: address space for nothing.
_STACK_BYTES = 256 * 1024

#: GIL quantum while a bootstrap runs.  At the interpreter default
#: (5 ms) thousands of simultaneously-runnable simulated ranks turn
#: every protocol step into a GIL handoff convoy, where a real
#: deployment gives every rank its own interpreter.  A long quantum lets
#: each simulated rank finish its whole protocol step per scheduling
#: turn, so the clock measures the protocol, not CPython's scheduler.
_SWITCH_INTERVAL_S = 0.05

#: Generous cap on each simulated rank: thousands of them oversubscribe
#: the host's cores, so one can legitimately starve far longer than in a
#: real per-process deployment.
_CHILD_TIMEOUT = 300.0


def bootstrap_seconds(nprocs: int) -> float:
    """Wall-clock for one full *nprocs*-rank rendezvous, thread-per-rank;
    every simulated rank checks it received the full peer map."""
    config = WorldConfig(backend="process", transport="unix")
    # mkdtemp under /tmp keeps socket paths under the 108-byte AF_UNIX
    # limit.
    sockdir = tempfile.mkdtemp(prefix="mphinit")
    old_stack = threading.stack_size(_STACK_BYTES)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(_SWITCH_INTERVAL_S)
    listener = None
    conns: dict = {}
    try:
        rendezvous = os.path.join(sockdir, "rendezvous.sock")
        listener = make_listener(rendezvous)
        errors: list = []

        def child(rank: int) -> None:
            try:
                peers, _config, _meta, conn = child_rendezvous(
                    rendezvous, rank, os.path.join(sockdir, f"d{rank}")
                )
                conn.close()
                if len(peers) != nprocs:
                    raise RuntimeError("short peer map in welcome")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=child, args=(r,), daemon=True)
            for r in range(nprocs)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        serve_rendezvous(listener, nprocs, config, [None] * nprocs, conns)
        for t in threads:
            t.join(_CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"simulated rank {rank} failed: {exc!r}") from exc
        return elapsed
    finally:
        sys.setswitchinterval(old_interval)
        threading.stack_size(old_stack)
        for conn in conns.values():
            conn.close()
        if listener is not None:
            listener.close()
        shutil.rmtree(sockdir, ignore_errors=True)
