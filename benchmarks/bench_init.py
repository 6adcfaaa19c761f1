"""Bootstrap address exchange at width, with simulated ranks.

:func:`bootstrap_seconds` drives the real protocol code —
:func:`~repro.mpi.bootstrap.serve_tree_address_exchange` and
:func:`~repro.mpi.bootstrap.child_tree_address_exchange` — with
*simulated* ranks: one thread per rank over real Unix sockets, no child
processes and no data plane, so a single host can form worlds of
hundreds to thousands of ranks.  Data addresses in the hellos are fake
(never dialled), and the clock covers exactly the address exchange:
thread spawn through every rank holding the peer map.  The follow-up
register/result/shutdown protocol is one O(1) launcher connect per
child (see :mod:`repro.mpi.bootstrap`) and excluded — under a shared
GIL, thousands of simulated ranks slamming the register socket at once
measures interpreter thread scheduling, not the bootstrap.

``tests/test_scale.py::TestInitScale`` (the ``init-scale`` CI job) runs
the 512-rank case as a protocol-correctness check at width.
``BENCH_init.json`` keeps the recorded scaling sweep (64–4096 ranks)
against the retired parent-accepts-everyone scheme.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading
import time

from repro.mpi.bootstrap import (
    child_tree_address_exchange,
    serve_tree_address_exchange,
)
from repro.mpi.transport import make_listener
from repro.mpi.world import WorldConfig

#: Simulated ranks only park on sockets, so they run on tiny stacks —
#: 4096 threads at the interpreter default (8 MiB) would be 32 GiB of
#: address space for nothing.
_STACK_BYTES = 256 * 1024

#: GIL quantum while a bootstrap runs.  At the interpreter default
#: (5 ms) thousands of simultaneously-runnable simulated ranks turn
#: every hop into a GIL handoff convoy — the relay cascade at 4096 ranks
#: measures 7× slower than the same protocol under a long quantum,
#: because each relay needs several handoffs per hop while a real
#: deployment gives every rank its own interpreter.  A long quantum lets
#: each simulated rank finish its whole protocol step per scheduling
#: turn, so the clock measures the protocol, not CPython's scheduler.
_SWITCH_INTERVAL_S = 0.05

#: Generous per-step cap: thousands of simulated ranks oversubscribe the
#: host's cores, so a single blocking step can legitimately starve far
#: longer than in a real per-process deployment.
_CHILD_TIMEOUT = 300.0


def bootstrap_seconds(nprocs: int) -> float:
    """Wall-clock for one full *nprocs*-rank address exchange,
    thread-per-rank; every simulated rank checks it received the full
    peer map."""
    config = WorldConfig(backend="process", transport="unix")
    # mkdtemp under /tmp keeps ctrl-socket paths under the 108-byte
    # AF_UNIX limit even at rank 4095.
    sockdir = tempfile.mkdtemp(prefix="mphinit")
    old_stack = threading.stack_size(_STACK_BYTES)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(_SWITCH_INTERVAL_S)
    listener = None
    try:
        rendezvous = os.path.join(sockdir, "rendezvous.sock")
        listener = make_listener(rendezvous)
        errors: list = []

        def child(rank: int) -> None:
            try:
                my_addr = os.path.join(sockdir, f"d{rank}")
                peers, _config, _meta = child_tree_address_exchange(
                    rendezvous, rank, nprocs, sockdir, my_addr,
                    timeout=_CHILD_TIMEOUT,
                )
                if len(peers) != nprocs:
                    raise RuntimeError("short peer map in tree welcome")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=child, args=(r,), daemon=True)
            for r in range(nprocs)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        serve_tree_address_exchange(listener, nprocs, config, None)
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
        if listener is not None:
            listener.close()
        shutil.rmtree(sockdir, ignore_errors=True)
