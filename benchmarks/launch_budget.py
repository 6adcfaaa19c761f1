"""Launch budget: where a no-op process world's wall-clock goes.

Times the stages of the launch pipeline (``repro.mpi.executor.launch``)
from outside — timestamps around the process manager's stage methods,
no source edit — for no-op worlds of a few sizes::

    PYTHONPATH=src python benchmarks/launch_budget.py [--launches 25] [--ranks 2 3 10]

Per size, medians over the launches (ms):

* ``spawn``     launch() entry -> bootstrap entry (validate, socket
  directory, one fork per rank);
* ``bootstrap`` the address exchange until every child has registered;
* ``collect``   ranks build their worlds, run, report (run/collect);
* ``shutdown``  shutdown frames, then joining every child;
* ``sweep``     shm segments and the socket directory removed;
* ``wall``      the whole ``run_spmd`` call (the stages plus classify).

The numbers a pre-forked pool has to beat are spawn + bootstrap +
shutdown; EXPERIMENTS.md ("Launch budget") records them per PR.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.mpi import WorldConfig, run_spmd
from repro.mpi.procbackend import _Rendezvous

STAGES = ("bootstrap", "collect", "shutdown", "sweep")


def _stamped(stamps: dict, name: str):
    inner = getattr(_Rendezvous, name)

    def method(self, *args, **kwargs):
        stamps[name + "_in"] = time.perf_counter()
        try:
            return inner(self, *args, **kwargs)
        finally:
            stamps[name + "_out"] = time.perf_counter()

    return inner, method


def measure(nranks: int, launches: int) -> dict:
    """Median milliseconds per stage over *launches* no-op worlds."""
    stamps: dict = {}
    saved = {}
    for name in STAGES:
        saved[name], method = _stamped(stamps, name)
        setattr(_Rendezvous, name, method)
    rows = []
    try:
        config = WorldConfig(backend="process")
        for _ in range(launches + 1):  # the first launch warms imports
            stamps.clear()
            start = time.perf_counter()
            assert run_spmd(nranks, lambda comm: comm.rank, config=config) == list(range(nranks))
            end = time.perf_counter()
            row = {"spawn": stamps["bootstrap_in"] - start, "wall": end - start}
            for name in STAGES:
                row[name] = stamps[name + "_out"] - stamps[name + "_in"]
            rows.append(row)
    finally:
        for name, inner in saved.items():
            setattr(_Rendezvous, name, inner)
    return {k: 1e3 * statistics.median(r[k] for r in rows[1:]) for k in rows[0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launches", type=int, default=25)
    parser.add_argument("--ranks", type=int, nargs="+", default=[2, 3, 10])
    args = parser.parse_args()
    columns = ("spawn",) + STAGES + ("wall",)
    print("ranks " + " ".join(f"{c:>10}" for c in columns))
    for nranks in args.ranks:
        row = measure(nranks, args.launches)
        print(f"{nranks:>5} " + " ".join(f"{row[c]:>10.2f}" for c in columns))


if __name__ == "__main__":
    main()
