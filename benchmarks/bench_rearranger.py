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
"""

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
