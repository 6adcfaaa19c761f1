"""MCT-style parallel rearrangement vs the rank-0 funnel.

Paper context (§7): the Model Coupling Toolkit builds its parallel data
transfer on MPH's handshake.  Measured here: moving a row-decomposed field
from a P-process producer to a Q-process consumer

* through the :class:`~repro.core.rearranger.Rearranger` (direct
  owner-to-owner messages), vs
* through the serial funnel (gather at producer rank 0 → one transfer →
  scatter at consumer rank 0) — the early-coupler pattern.

Expected shape: the funnel serialises the whole field through two
processes, so the router's advantage grows with field size; message
*counts* are also asserted via the schedule.

The third case is the shape the toy CCSM's p2p exchange uses the router
in (``repro.climate.ccsm``): every producer rank ↔ *one process* of the
consumer, there and back, a step number riding in each header.

``python benchmarks/bench_rearranger.py --quick`` runs every case once
without pytest-benchmark and prints its wall time (CI's smoke: the
transfers complete and deliver the right rows; the numbers are noise).
"""

import sys
import time

import numpy as np
import pytest

from repro import components_setup, mph_run
from repro.core.rearranger import Rearranger

REG = "BEGIN\nalpha\nbeta\nEND"
ROUNDS = 5


def run_transfer(nrows, ncols, n_alpha, n_beta, method, rounds=ROUNDS):
    def alpha(world, env):
        mph = components_setup(world, "alpha", env=env)
        r = Rearranger(mph, "alpha", "beta", nrows, ncols)
        start, stop = r.src_rows
        block = np.ones((stop - start, ncols))
        comm = mph.component_comm()
        for _ in range(rounds):
            if method == "router":
                r(block)
            else:
                full = comm.gather(block, root=0)
                if comm.rank == 0:
                    mph.send(np.concatenate(full), "beta", 0, tag=7)
        return True

    def beta(world, env):
        mph = components_setup(world, "beta", env=env)
        r = Rearranger(mph, "alpha", "beta", nrows, ncols)
        comm = mph.component_comm()
        from repro.core.migration import block_rows

        for _ in range(rounds):
            if method == "router":
                out = r(None)
            else:
                blocks = None
                if comm.rank == 0:
                    full = mph.recv("alpha", 0, tag=7)
                    blocks = [
                        full[block_rows(nrows, comm.size, q)[0] : block_rows(nrows, comm.size, q)[1]]
                        for q in range(comm.size)
                    ]
                out = comm.scatter(blocks, root=0)
            assert out.shape[1] == ncols
        return True

    return mph_run([(alpha, n_alpha), (beta, n_beta)], registry=REG)


def run_coupler_exchange(nrows, ncols, n_alpha, rounds=ROUNDS):
    """alpha's ranks send their blocks to beta's local processor 0 and
    get them back doubled, *rounds* times: N → 1 → N over two routers
    used by halves, as a component and a serial flux coupler use them."""

    def routers(mph):
        return (
            Rearranger(mph, "alpha", ("beta", 0), nrows, ncols, tag=951_000, extra=1),
            Rearranger(mph, ("beta", 0), "alpha", nrows, ncols, tag=952_000, extra=1),
        )

    def alpha(world, env):
        mph = components_setup(world, "alpha", env=env)
        there, back = routers(mph)
        start, stop = there.src_rows
        block = np.arange(start, stop, dtype=float)[:, None] * np.ones(ncols)
        for step in range(rounds):
            there.send(block, (step,))
            out, (got_step,) = back.recv()
            assert got_step == step and np.array_equal(out, 2.0 * block)
        return True

    def beta(world, env):
        mph = components_setup(world, "beta", env=env)
        if mph.local_proc_id() != 0:
            return True
        there, back = routers(mph)
        for step in range(rounds):
            full, (got_step,) = there.recv()
            assert got_step == step and full.shape == (nrows, ncols)
            back.send(2.0 * full, (step,))
        return True

    return mph_run([(alpha, n_alpha), (beta, 2)], registry=REG)


@pytest.mark.parametrize("method", ["router", "funnel"])
@pytest.mark.parametrize("nrows", [64, 512])
def test_field_rearrangement(benchmark, method, nrows):
    def run():
        return run_transfer(nrows, 64, 4, 4, method)

    benchmark(run)
    benchmark.extra_info.update(method=method, nrows=nrows, ncols=64, rounds=ROUNDS)


def test_coupled_routing(benchmark):
    """Repeated coupled routing: many coupling steps over a misaligned
    moderate-width field — the regime the persistent requests over
    preallocated staging buffers are for (no pickling, no per-call
    allocation, no request re-setup)."""
    nrows, ncols, rounds = 512, 8, 100

    def run():
        return run_transfer(nrows, ncols, 4, 3, "router", rounds=rounds)

    benchmark(run)
    benchmark.extra_info.update(nrows=nrows, ncols=ncols, rounds=rounds)


def test_coupler_exchange(benchmark):
    """The CCSM shape: 4 ranks ↔ one process, 64×128 field, there and
    back, 20 coupling rounds."""

    def run():
        return run_coupler_exchange(64, 128, 4, rounds=20)

    benchmark(run)
    benchmark.extra_info.update(nrows=64, ncols=128, rounds=20)


def main(argv):
    if argv != ["--quick"]:
        print(__doc__)
        return 2
    cases = {
        "router 64x64 4->4": lambda: run_transfer(64, 64, 4, 4, "router"),
        "funnel 64x64 4->4": lambda: run_transfer(64, 64, 4, 4, "funnel"),
        "router 512x8 4->3, 20 rounds": lambda: run_transfer(512, 8, 4, 3, "router", rounds=20),
        "coupler shape 64x128 4<->1, 20 rounds": lambda: run_coupler_exchange(64, 128, 4, 20),
    }
    for name, case in cases.items():
        t0 = time.perf_counter()
        ok = all(case().values())
        print(f"{name:40s} {(time.perf_counter() - t0) * 1e3:8.1f} ms  {'ok' if ok else 'FAILED'}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
