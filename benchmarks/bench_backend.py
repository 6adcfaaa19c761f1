"""Execution-backend comparison: thread-direct vs process.

Two questions, answered in ``BENCH_backend.json``:

* **Did the transport seam slow the thread backend down?**  Routing all
  remote delivery through :meth:`World.deliver` put exactly one
  ``transport is None`` branch on the seed's hot path.  Each kernel is
  timed on ``thread-direct`` (the seed configuration) twice — the second
  batch against the first is the *noise floor* — and the claim is that
  the branch is indistinguishable from that floor (<1%).
* **What does a real wire cost?**  ``process-unix`` runs every rank as a
  forked OS process over Unix-domain sockets — pickled frames, kernel
  round trips, real context switches.  This is the honest price of true
  address-space isolation, reported so nobody mistakes the thread
  backend's numbers for it.

Every kernel times its operation loop *inside* the job from rank 0,
between two barriers — process spawn and socket bootstrap are excluded,
so the comparison is per-operation transport cost, not launch cost.

Timing discipline: substrates are *interleaved within each repetition*
(rep 0 runs every substrate back to back, then rep 1, ...), and every
overhead figure is the median of the **per-rep paired ratios** against
the thread-direct run of the *same* rep.  Unpaired batches — all
thread runs, then all process runs — let minute-scale machine drift
land entirely on one substrate and regularly produced negative
"overheads" on loaded hosts; pairing cancels the drift because both
sides of each ratio see the same machine state.

The driver in ``compare.py`` (``--suite backend``) writes
``BENCH_backend.json``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.mpi import WorldConfig, run_spmd


def _substrates() -> dict[str, WorldConfig]:
    return {
        "thread-direct": WorldConfig(),
        "process-unix": WorldConfig(backend="process", transport="unix"),
        "process-shm": WorldConfig(backend="process", transport="shm"),
    }


# ---------------------------------------------------------------------------
# Kernels: each returns rank 0's in-job seconds for the operation loop
# ---------------------------------------------------------------------------


def pingpong_seconds(config: WorldConfig, rounds: int = 50, elements: int = 100_000) -> float:
    """Object-mode ping-pong of a ~0.8 MiB field between 2 ranks."""

    def main(comm):
        payload = np.zeros(elements)
        comm.barrier()
        t0 = time.perf_counter()
        for i in range(rounds):
            if comm.rank == 0:
                comm.send(payload, 1, tag=1)
                comm.recv(source=1, tag=2)
            else:
                comm.recv(source=0, tag=1)
                comm.send(payload, 0, tag=2)
        comm.barrier()
        return time.perf_counter() - t0

    return run_spmd(2, main, config=config, timeout=300.0)[0]


def small_p2p_seconds(config: WorldConfig, rounds: int = 500) -> float:
    """Latency view: empty-payload send/recv roundtrips between 2 ranks."""

    def main(comm):
        comm.barrier()
        t0 = time.perf_counter()
        for i in range(rounds):
            if comm.rank == 0:
                comm.send(None, 1, tag=1)
                comm.recv(source=1, tag=2)
            else:
                comm.recv(source=0, tag=1)
                comm.send(None, 0, tag=2)
        comm.barrier()
        return time.perf_counter() - t0

    return run_spmd(2, main, config=config, timeout=300.0)[0]


def allreduce_seconds(config: WorldConfig, rounds: int = 100, nprocs: int = 4) -> float:
    """Collective view: object-mode allreduce on 4 ranks."""

    def main(comm):
        comm.barrier()
        t0 = time.perf_counter()
        for i in range(rounds):
            comm.allreduce(comm.rank + i)
        comm.barrier()
        return time.perf_counter() - t0

    return run_spmd(nprocs, main, config=config, timeout=300.0)[0]


KERNELS = {
    "pingpong_100k_x50": pingpong_seconds,
    "small_p2p_x500": small_p2p_seconds,
    "allreduce_p4_x100": allreduce_seconds,
}


def run_backend_ablation(reps: int = 9) -> dict:
    """Time every kernel on every substrate; return the report.

    Substrates are interleaved within each rep (see the module
    docstring): every overhead is the median of per-rep ratios against
    the same-rep thread-direct run, and the noise floor is a second
    thread-direct run inside the same rep, reported the same way.
    """
    substrates = _substrates()
    report: dict = {}
    for name, kernel in KERNELS.items():
        for config in substrates.values():
            kernel(config)  # warm-up: imports, forks, socket bootstrap
        samples: dict[str, list] = {s: [] for s in substrates}
        samples["noise-probe"] = []
        for _ in range(reps):
            for substrate, config in substrates.items():
                samples[substrate].append(kernel(config))
                if substrate == "thread-direct":
                    # paired noise probe: same config, same rep
                    samples["noise-probe"].append(kernel(config))
        baselines = samples["thread-direct"]
        entry = {
            "reps": reps,
            "thread_direct_median_s": statistics.median(baselines),
            "noise_floor_percent": statistics.median(
                abs(n - b) / b * 100.0
                for n, b in zip(samples["noise-probe"], baselines)
            ),
        }
        for substrate in substrates:
            if substrate == "thread-direct":
                continue
            key = substrate.replace("-", "_")
            entry[f"{key}_median_s"] = statistics.median(samples[substrate])
            entry[f"{key}_overhead_percent"] = statistics.median(
                (s - b) / b * 100.0
                for s, b in zip(samples[substrate], baselines)
            )
        report[name] = entry
        print(
            f"{name}: thread={entry['thread_direct_median_s'] * 1e3:.1f}ms "
            f"noise={entry['noise_floor_percent']:.2f}% "
            f"unix={entry['process_unix_overhead_percent']:+.1f}% "
            f"shm={entry['process_shm_overhead_percent']:+.1f}%"
        )
    return report


def main(argv=None) -> None:  # pragma: no cover
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--quick", action="store_true",
                        help="2 reps — CI smoke, numbers not for citing")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here as well")
    args = parser.parse_args(argv)
    report = run_backend_ablation(2 if args.quick else args.reps)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":  # pragma: no cover
    main()
