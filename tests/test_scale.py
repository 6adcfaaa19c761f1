"""Scale smoke tests: larger worlds and component counts than the unit
tests use — paper-sized configurations must hold together end to end.

Deflake audit: no wall-clock sleeps here — every test is rendezvous-
synchronized by its own collectives, so nothing to convert to the
``World.wait_until_blocked`` event hook."""

import os
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

from repro import components_setup, mph_run, multi_instance
from repro.mpi import run_spmd
from repro.mpi.bootstrap import child_rendezvous, serve_rendezvous
from repro.mpi.transport import make_listener
from repro.mpi.world import WorldConfig


class TestSubstrateScale:
    def test_64_rank_collectives(self):
        def main(comm):
            total = comm.allreduce(comm.rank)
            gathered = comm.allgather(comm.rank % 7)
            comm.barrier()
            sub = comm.split(comm.rank % 4, key=comm.rank)
            return (total, len(gathered), sub.size)

        values = run_spmd(64, main, timeout=120)
        assert values[0] == (2016, 64, 16)
        assert len(set(values)) == 1

    def test_deep_split_tree(self):
        """Five generations of splits: 32 -> 16 -> 8 -> 4 -> 2 -> 1."""

        def main(comm):
            current = comm
            sizes = []
            while current.size > 1:
                current = current.split(current.rank % 2, key=current.rank)
                sizes.append(current.size)
            return sizes

        values = run_spmd(32, main, timeout=120)
        assert values[0] == [16, 8, 4, 2, 1]


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
    """Wall-clock for one full *nprocs*-rank rendezvous of the real
    protocol (:func:`~repro.mpi.bootstrap.serve_rendezvous` and
    :func:`~repro.mpi.bootstrap.child_rendezvous`) with *simulated* ranks:
    one thread per rank over real Unix sockets, no child processes and no
    data plane, so one host forms worlds of thousands of ranks.  Data
    addresses in the hello frames are fake (never dialled).  Every
    simulated rank checks it received the full peer map; a rank that
    fails, or is still inside the rendezvous after the cap, raises."""
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
        hung = [rank for rank, t in enumerate(threads) if t.is_alive()]
        if hung:
            raise RuntimeError(
                f"simulated ranks {hung[:8]} still in the rendezvous after {_CHILD_TIMEOUT}s"
            )
        return elapsed
    finally:
        sys.setswitchinterval(old_interval)
        threading.stack_size(old_stack)
        for conn in conns.values():
            conn.close()
        if listener is not None:
            listener.close()
        shutil.rmtree(sockdir, ignore_errors=True)


class TestInitScale:
    """The ``init-scale`` CI smoke: the bootstrap must complete a
    512-rank rendezvous (simulated ranks — one thread each over real
    Unix sockets).  Every simulated rank verifies it got the full peer
    map, so this asserts protocol correctness at width; timings from
    shared runners are noise."""

    def test_bootstrap_512_ranks(self):
        assert bootstrap_seconds(512) > 0.0


class TestHandshakeScale:
    def test_paper_scale_mcme(self):
        """A CCSM-sized job: 36 + 32 + 4 processes, 6 components, overlap —
        the paper's §4.2/§4.3 sizes combined."""
        registry = """
BEGIN
Multi_Component_Begin
atmosphere 0 15
land       0 15
chemistry  16 35
Multi_Component_End
Multi_Component_Begin
ocean 0 15
ice   16 31
Multi_Component_End
Multi_Component_Begin
coupler 0 1
io      2 3
Multi_Component_End
END
"""

        def exe(*names):
            def program(world, env):
                mph = components_setup(world, *names, env=env)
                return (mph.comp_names(), mph.total_components())

            program.__name__ = names[0]
            return program

        result = mph_run(
            [
                (exe("atmosphere", "land", "chemistry"), 36),
                (exe("ocean", "ice"), 32),
                (exe("coupler", "io"), 4),
            ],
            registry=registry,
            timeout=120,
        )
        assert result.values()[0] == (("atmosphere", "land"), 7)
        assert result.values()[70] == (("io",), 7)

    def test_many_single_component_executables(self):
        """16 executables of 3 processes: the world_split fast path at
        width."""
        names = [f"model{i:02d}" for i in range(16)]
        registry = "BEGIN\n" + "\n".join(names) + "\nEND"

        def make(name):
            def program(world, env):
                mph = components_setup(world, name, env=env)
                return (mph.comp_name(), mph.component_comm().size, mph.strategy)

            program.__name__ = name
            return program

        result = mph_run([(make(n), 3) for n in names], registry=registry, timeout=120)
        for i, name in enumerate(names):
            assert result.by_executable(i) == [(name, 3, "world_split")] * 3

    def test_large_ensemble(self):
        """A 12-instance MIME ensemble plus statistics."""
        lines = "\n".join(f"Run{i + 1:02d} {2 * i} {2 * i + 1}" for i in range(12))
        registry = f"BEGIN\nMulti_Instance_Begin\n{lines}\nMulti_Instance_End\nstats\nEND"

        def run(world, env):
            mph = multi_instance(world, "Run", env=env)
            if mph.local_proc_id() == 0:
                mph.send(mph.comp_name(), "stats", 0, tag=3)
            return mph.comp_name()

        def stats(world, env):
            mph = components_setup(world, "stats", env=env)
            got = sorted(mph.recv_any(tag=3)[0] for _ in range(12))
            return got

        result = mph_run([(run, 24), (stats, 1)], registry=registry, timeout=120)
        assert result.by_executable(1)[0] == sorted(f"Run{i + 1:02d}" for i in range(12))
        assert result.by_executable(0)[23] == "Run12"
