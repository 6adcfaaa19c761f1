"""Ablation — what the substrate's safety nets cost.

The deadlock watchdog is on by default; this bench measures its overhead
on a communication-heavy workload so the default can be defended with a
number.  Expected shape: near-free — the watchdog only runs on blocked
waiters' wakeup slices.
"""

import pytest

from repro.mpi import WorldConfig, run_spmd

CONFIGS = {
    "all-on": WorldConfig(),
    "no-deadlock-detection": WorldConfig(deadlock_detection=False),
}


def chatty_workload(comm):
    """A mix of p2p and collectives with real waiting."""
    for i in range(20):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(i, right, tag=1)
        comm.recv(source=left, tag=1)
        comm.allreduce(i)
        if i % 5 == 0:
            comm.barrier()
    return True


@pytest.mark.parametrize("config", list(CONFIGS), ids=list(CONFIGS))
def test_safety_net_overhead(benchmark, config):
    def run():
        return run_spmd(8, chatty_workload, config=CONFIGS[config])

    benchmark(run)
    benchmark.extra_info["config"] = config
