"""Substrate ablation — collective algorithm families.

The handshake's cost is dominated by the collectives it uses (bcast of the
registry, allgather of declarations, the splits' gather/scatter).  This
bench compares the textbook algorithm families the substrate implements:

* broadcast: linear (O(P) messages from the root) vs binomial tree
  (O(log P) rounds) — the tree should win as P grows;
* allreduce: reduce+bcast vs recursive doubling;
* barrier: linear vs dissemination.
"""

import numpy as np
import pytest

from repro.mpi import WorldConfig, run_spmd

LINEAR = WorldConfig(
    bcast_algorithm="linear",
    reduce_algorithm="linear",
    allreduce_algorithm="reduce_bcast",
    allgather_algorithm="gather_bcast",
    barrier_algorithm="linear",
)
TREE = WorldConfig(
    bcast_algorithm="binomial",
    reduce_algorithm="binomial",
    allreduce_algorithm="recursive_doubling",
    allgather_algorithm="ring",
    barrier_algorithm="dissemination",
)
CONFIGS = {"linear": LINEAR, "tree": TREE}

REPEATS = 30  # collective calls per measured job (amortises thread spawn)


@pytest.mark.parametrize("family", CONFIGS)
@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_bcast(benchmark, family, nprocs):
    payload = np.arange(512, dtype=np.float64)

    def main(comm):
        for _ in range(REPEATS):
            comm.bcast(payload if comm.rank == 0 else None)
        return True

    def run():
        return run_spmd(nprocs, main, config=CONFIGS[family])

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS, family=family)


@pytest.mark.parametrize("family", CONFIGS)
@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_allreduce(benchmark, family, nprocs):
    def main(comm):
        acc = 0
        for i in range(REPEATS):
            acc = comm.allreduce(comm.rank + i)
        return acc

    def run():
        return run_spmd(nprocs, main, config=CONFIGS[family])

    result = benchmark(run)
    expected = sum(range(nprocs)) + nprocs * (REPEATS - 1)
    assert result == [expected] * nprocs
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS, family=family)


@pytest.mark.parametrize("family", CONFIGS)
@pytest.mark.parametrize("nprocs", [4, 8, 16])
def test_barrier(benchmark, family, nprocs):
    def main(comm):
        for _ in range(REPEATS):
            comm.barrier()
        return True

    def run():
        return run_spmd(nprocs, main, config=CONFIGS[family])

    benchmark(run)
    benchmark.extra_info.update(nprocs=nprocs, repeats=REPEATS, family=family)


def test_bcast_1mib_linear_fanout(benchmark):
    """The headline fan-out: a 1 MiB field broadcast linearly from rank 0
    to 16 ranks.  The root encodes once and every destination envelope
    shares the same immutable snapshot."""
    nprocs, repeats = 16, 5
    payload = np.arange(131_072, dtype=np.float64)  # 1 MiB

    def main(comm):
        for _ in range(repeats):
            comm.bcast(payload if comm.rank == 0 else None)
        return True

    config = WorldConfig(bcast_algorithm="linear")

    def run():
        return run_spmd(nprocs, main, config=config)

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
