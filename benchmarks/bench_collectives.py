"""Collective cost against world size.

The handshake's cost is dominated by the collectives it uses (bcast of the
registry, allgather of declarations, the splits' gather/scatter).  Each
verb has one schedule (:mod:`repro.mpi.collectives`), so this bench is a
size sweep: a rooted verb sends P−1 messages, a symmetric one 2(P−1), and
on this substrate the time follows the count.
"""

import numpy as np
import pytest

from repro.mpi import run_spmd

REPEATS = 30  # collective calls per measured job (amortises thread spawn)


@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_bcast(benchmark, nprocs):
    payload = np.arange(512, dtype=np.float64)

    def main(comm):
        for _ in range(REPEATS):
            comm.bcast(payload if comm.rank == 0 else None)
        return True

    def run():
        return run_spmd(nprocs, main)

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS)


@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_allreduce(benchmark, nprocs):
    def main(comm):
        acc = 0
        for i in range(REPEATS):
            acc = comm.allreduce(comm.rank + i)
        return acc

    def run():
        return run_spmd(nprocs, main)

    result = benchmark(run)
    expected = sum(range(nprocs)) + nprocs * (REPEATS - 1)
    assert result == [expected] * nprocs
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS)


@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_barrier(benchmark, nprocs):
    def main(comm):
        for _ in range(REPEATS):
            comm.barrier()
        return True

    def run():
        return run_spmd(nprocs, main)

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS)


def test_bcast_1mib_fanout(benchmark):
    """The headline fan-out: a 1 MiB field broadcast from rank 0 to 16
    ranks.  The root encodes once and every destination envelope
    shares the same immutable snapshot."""
    nprocs, repeats = 16, 5
    payload = np.arange(131_072, dtype=np.float64)  # 1 MiB

    def main(comm):
        for _ in range(repeats):
            comm.bcast(payload if comm.rank == 0 else None)
        return True

    def run():
        return run_spmd(nprocs, main)

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=repeats, nbytes=payload.nbytes)


@pytest.mark.parametrize("mode", ["object", "buffer"])
@pytest.mark.parametrize("nelems", [1_000, 100_000])
def test_allreduce_payload_modes(benchmark, mode, nelems):
    """Object (pickle) vs buffer (numpy) collective fast path, 4 ranks."""

    def main(comm):
        data = np.linspace(0.0, 1.0, nelems)
        for _ in range(10):
            if mode == "buffer":
                comm.Allreduce(data)
            else:
                comm.allreduce(data)
        return True

    def run():
        return run_spmd(4, main)

    benchmark(run)
    benchmark.extra_info.update(mode=mode, nelems=nelems, repeats=10)


@pytest.mark.parametrize("nprocs", [4, 8])
def test_comm_split(benchmark, nprocs):
    """The handshake's workhorse: repeated world splits."""

    def main(comm):
        for i in range(REPEATS):
            sub = comm.split(comm.rank % 2, key=comm.rank)
            sub.free()
        return True

    def run():
        return run_spmd(nprocs, main)

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS)
