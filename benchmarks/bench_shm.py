"""Shared-memory transport curves and topology-aware collective gains.

Two questions, answered in ``BENCH_shm.json``:

* **What does the shm substrate buy over sockets?**  Every kernel from
  :mod:`bench_backend` (large ping-pong, small-message latency,
  object-mode allreduce) is timed on ``thread`` (the in-process floor),
  ``process-unix`` (pickled frames over Unix sockets) and
  ``process-shm`` (mmap rings + zero-copy pages).  The report carries
  the per-rep paired ratios: shm-vs-thread (how close true process
  isolation gets to the no-wire floor) and unix-vs-shm (the speedup
  the rings deliver over the socket path).
* **Does following the node map beat ignoring it?**  ``allreduce`` on
  4 ranks: one flat star with every pair on sockets (``nodes=None``,
  ``unix``) vs the same ranks split across 2 simulated nodes
  (``nodes=2``, ``shm``: each leader folds its node over shm rings and
  only the two leaders speak across the socket) — the MPICH-G2
  topology argument, reproduced on one host.  Measured
  twice: on a scalar (pure per-message latency, where an oversubscribed
  single-CPU host shows no win — every hop costs one scheduler round
  trip whichever wire carries it) and on a ~0.8 MiB field (the MPH
  workload shape — coupled models exchange fields, not scalars — where
  intra-node hops ride the zero-copy page pool and skip the
  pickle+socket copy entirely).

Same timing discipline as :mod:`bench_backend`: substrates interleave
within each rep and every ratio pairs runs from the same rep, so
machine drift cancels instead of masquerading as overhead.

Usage::

    PYTHONPATH=src python benchmarks/compare.py --suite shm
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.mpi import WorldConfig, run_spmd

try:
    from benchmarks.bench_backend import KERNELS, allreduce_seconds
except ImportError:  # run as a script: benchmarks/ is sys.path[0]
    from bench_backend import KERNELS, allreduce_seconds


def allreduce_field_seconds(
    config: WorldConfig, rounds: int = 25, elements: int = 100_000, nprocs: int = 4
) -> float:
    """Allreduce of a ~0.8 MiB float64 field on 4 ranks — the coupled-model
    exchange shape, where the zero-copy page pool carries intra-node hops."""

    def main(comm):
        field = np.zeros(elements)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(rounds):
            comm.allreduce(field)
        comm.barrier()
        return time.perf_counter() - t0

    return run_spmd(nprocs, main, config=config, timeout=300.0)[0]


def _curve_substrates() -> dict[str, WorldConfig]:
    return {
        "thread": WorldConfig(),
        "process-unix": WorldConfig(backend="process", transport="unix"),
        "process-shm": WorldConfig(backend="process", transport="shm"),
    }


def _hierarchy_substrates() -> dict[str, WorldConfig]:
    # The flat side is one node with every pair on sockets; the
    # two-level side spans 2 simulated nodes, same-node traffic on shm
    # rings and one leader per node on the socket between them.
    return {
        "flat-sockets": WorldConfig(backend="process", transport="unix"),
        "twolevel-shm": WorldConfig(backend="process", transport="shm", nodes=2),
    }


def run_shm_ablation(reps: int = 9) -> dict:
    """Time the transport curves and the hierarchy comparison."""
    report: dict = {}
    substrates = _curve_substrates()
    for name, kernel in KERNELS.items():
        for config in substrates.values():
            kernel(config)  # warm-up
        samples: dict[str, list] = {s: [] for s in substrates}
        for _ in range(reps):
            for substrate, config in substrates.items():
                samples[substrate].append(kernel(config))
        entry = {"reps": reps}
        for substrate in substrates:
            entry[f"{substrate.replace('-', '_')}_median_s"] = (
                statistics.median(samples[substrate])
            )
        entry["shm_vs_thread_ratio"] = statistics.median(
            s / t for s, t in zip(samples["process-shm"], samples["thread"])
        )
        entry["unix_vs_shm_speedup"] = statistics.median(
            u / s
            for u, s in zip(samples["process-unix"], samples["process-shm"])
        )
        report[name] = entry
        print(
            f"{name}: thread={entry['thread_median_s'] * 1e3:.1f}ms "
            f"unix={entry['process_unix_median_s'] * 1e3:.1f}ms "
            f"shm={entry['process_shm_median_s'] * 1e3:.1f}ms "
            f"shm/thread={entry['shm_vs_thread_ratio']:.2f}x "
            f"unix/shm={entry['unix_vs_shm_speedup']:.2f}x"
        )

    hier = _hierarchy_substrates()
    hier_kernels = {
        "allreduce_p4_nodes2_hierarchical": allreduce_seconds,
        "allreduce_field_p4_nodes2_hierarchical": allreduce_field_seconds,
    }
    for name, kernel in hier_kernels.items():
        for config in hier.values():
            kernel(config)  # warm-up
        samples = {s: [] for s in hier}
        for _ in range(reps):
            for substrate, config in hier.items():
                samples[substrate].append(kernel(config))
        entry = {
            "reps": reps,
            "flat_sockets_median_s": statistics.median(samples["flat-sockets"]),
            "twolevel_shm_median_s": statistics.median(samples["twolevel-shm"]),
            "speedup": statistics.median(
                f / t
                for f, t in zip(samples["flat-sockets"], samples["twolevel-shm"])
            ),
        }
        report[name] = entry
        print(
            f"{name}: flat={entry['flat_sockets_median_s'] * 1e3:.1f}ms "
            f"twolevel={entry['twolevel_shm_median_s'] * 1e3:.1f}ms "
            f"speedup={entry['speedup']:.2f}x"
        )
    return report


if __name__ == "__main__":  # pragma: no cover
    import json

    print(json.dumps(run_shm_ablation(), indent=2))
