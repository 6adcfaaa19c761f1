"""The end-to-end benchmark: one command, four workloads, six metrics.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--trace-out PATH] [--aa]

Without ``--workload`` every workload runs, each in a fresh subprocess
of this same file, and ``--aa`` runs that twice and compares.  With
``--workload`` the one workload runs in this process and the last line
of standard output is the result object ``BENCHMARK.json`` describes:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (a
second, traced pass plus the layer probes) with ``--trace 1``.

See README.md beside this file for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"


def fingerprint() -> str:
    """The host the numbers are taken on, and how busy it is."""
    import numpy

    load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    return (
        f"nproc={os.cpu_count()} loadavg={load} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def commit() -> str:
    """The commit measured.  Asked of git only by the parent of the
    workload subprocesses: a git child would count towards a workload's
    ``peak_rss_mib``."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        out = ""
    return out or "unknown"


class Ledger:
    """What exists now that did not when the workload started: the
    ``bench.leaked.*`` counts, taken just before the process exits."""

    def __init__(self) -> None:
        self.shm = self._names("/dev/shm")
        self.tmp = self._names(tempfile.gettempdir())

    @staticmethod
    def _names(directory: str) -> set[str]:
        try:
            return set(os.listdir(directory))
        except OSError:
            return set()

    def leaked(self) -> dict[str, int]:
        tmp = tempfile.gettempdir()
        children = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # exited while we looked
            # pid (comm) state ppid ...; comm may hold spaces and brackets
            children += int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid()
        return {
            "threads": sum(
                1 for t in threading.enumerate()
                if t is not threading.main_thread() and not t.daemon
            ),
            "children": children,
            "shm_segments": len(self._names("/dev/shm") - self.shm),
            "sockdirs": sum(
                os.path.isdir(os.path.join(tmp, name)) for name in self._names(tmp) - self.tmp
            ),
        }


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload in this process; print its metrics by name and
    then the result object as the last line."""
    if not SRC.is_dir():
        print(f"error: the program's source tree is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORK, WORKLOADS

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# before: {fingerprint()}")
    if args.trace:
        import probes

        trace_out = Path(args.trace_out or HERE / "out" / f"trace-{workload.name}.json")
        attempted, failed, rows = probes.layer_metrics(workload, args.seed, args.seconds, trace_out)
        print(f"# chrome trace: {trace_out}")
        rows.update(
            {f"bench.leaked.{k}": (v, "count", 1) for k, v in ledger.leaked().items()}
        )
    else:
        measured = workload.measure(args.seed, args.seconds)
        attempted, failed = measured.attempted, measured.failed
        if not measured.walls:
            print("error: no rep produced verified outputs", file=sys.stderr)
            return 1
        rows = measured.end_to_end()
        print(f"# leaked: {ledger.leaked()}; jobs submitted twice: {measured.retried}")
        print(f"# host speed factor: median {statistics.median(measured.factors):.3f} over "
              f"{len(measured.factors)} reps (each rep's times are divided by its own; 1.0 is "
              f"the reference host); wall_s by this host's clock: "
              f"{statistics.median(measured.raw_walls):.4f} s")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"# after:  {fingerprint()}")
    for name, (value, unit, samples) in rows.items():
        print(f"{workload.name:22s} {name:52s} {value:14.6g} {unit:6s} n={samples}")
    declared = json.loads(CONTRACT.read_text())["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> dict[str, dict]:
    """Run every workload, each in a fresh subprocess; returns
    ``workload -> result object``."""
    names = [w["name"] for w in json.loads(CONTRACT.read_text())["workloads"]]
    print(f"# commit={commit()}")
    results = {}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
        status = "ok" if results[name]["correct"] else "FAILED VERIFICATION"
        print(f"{name:22s} {results[name]['failed']} of {results[name]['attempted']} "
              f"operations failed: {status}\n", flush=True)
    return results


def compare_aa(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Print both runs' medians, their gap and the bound for every
    end-to-end metric × workload; whether every gap is within bound."""
    bounds = {m["name"]: m for m in json.loads(CONTRACT.read_text())["end_to_end"]}
    within = True
    print(f"{'workload':22s} {'metric':14s} {'first':>12s} {'second':>12s} {'gap':>8s} {'bound':>6s}")
    for workload in first:
        for name, spec in bounds.items():
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            gap = abs(b - a) / a
            ok = gap <= spec["bound"]
            within &= ok
            print(f"{workload:22s} {name:14s} {a:12.5g} {b:12.5g} {gap:8.2%} "
                  f"{spec['bound']:6.0%}{'' if ok else '  EXCEEDED'}")
    return within


def main() -> int:
    contract = json.loads(CONTRACT.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", help="where --trace writes its Chrome-trace JSON")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare against the bounds")
    args = parser.parse_args()
    if args.aa and (args.trace or args.workload):
        parser.error("--aa compares two untraced runs of every workload")

    if args.workload:
        return run_workload(args)
    first = run_all(args)
    correct = all(r["correct"] for r in first.values())
    if args.aa:
        second = run_all(args)
        correct &= all(r["correct"] for r in second.values())
        correct &= compare_aa(first, second)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
