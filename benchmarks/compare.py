"""Benchmark-suite driver: one registry, one report file per suite.

``--suite NAME`` runs one suite and writes ``BENCH_<NAME>.json``;
``--suite all`` runs every suite in the registry.  ``--quick`` drops to
2 reps and skips report files — the CI smoke mode.  The suites:

``faults``
    fault-injection hook overhead and ULFM recovery latency
    (:mod:`bench_faults`);
``sched``
    match-schedule hook overhead, disabled vs armed (:mod:`bench_sched`);
``backend``
    execution-substrate comparison, thread vs process over sockets
    (:mod:`bench_backend`);
``shm``
    shared-memory transport curves, and an allreduce that follows the
    node map against one that ignores it
    (:mod:`bench_shm`);
``coupling``
    coupled-solver iteration counts and driver overhead
    (:mod:`bench_coupling`);
``service``
    MPH-as-a-service throughput, cold isolated worlds vs resident worker
    worlds, plus layout-cache resolution latency (:mod:`bench_service`).

The end-to-end benchmark is separate: ``python3 benchmarks/e2e/run.py``.
Everything runs on one host — no network, no external services.  Usage::

    PYTHONPATH=src python benchmarks/compare.py --suite NAME [--reps N] [--out FILE]
"""

from __future__ import annotations

import argparse
import importlib
import json

#: ``suite -> (module, function)``; each function takes the rep count
#: and returns the suite's JSON-serialisable report.
SUITES = {
    "faults": ("bench_faults", "run_faults_ablation"),
    "sched": ("bench_sched", "run_sched_ablation"),
    "backend": ("bench_backend", "run_backend_ablation"),
    "shm": ("bench_shm", "run_shm_ablation"),
    "coupling": ("bench_coupling", "run_coupling_ablation"),
    "service": ("bench_service", "run_service_ablation"),
}


def _suite_runner(suite: str):
    module, function = SUITES[suite]
    try:
        mod = importlib.import_module(f"benchmarks.{module}")
    except ImportError:  # run as a script: benchmarks/ is sys.path[0]
        mod = importlib.import_module(module)
    return getattr(mod, function)


def _write_report(report: dict, out: str | None) -> None:
    if out is None:  # --quick smoke run: numbers are not for citing
        return
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=(*SUITES, "all"), required=True,
                        help="which suite to run")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per configuration")
    parser.add_argument("--quick", action="store_true",
                        help="2 reps and no report rewrite unless --out is "
                             "given — CI smoke-test mode")
    parser.add_argument("--out", default=None,
                        help="where to write the JSON report (default: "
                             "BENCH_<suite>.json; ignored for --suite all)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.quick:
        args.reps = 2

    for suite in SUITES if args.suite == "all" else (args.suite,):
        if args.suite == suite and args.out:
            out = args.out
        elif args.quick:
            out = None
        else:
            out = f"BENCH_{suite}.json"
        _write_report(_suite_runner(suite)(args.reps), out)


if __name__ == "__main__":
    main()
