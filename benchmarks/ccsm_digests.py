"""Bitwise fingerprints of the coupled model's results.

A change to how the coupled step communicates must leave every result
the parent's to the bit.  This runs 16 configurations of a 6-step
``run_ccsm`` — every exchange, coupling scheme, execution mode,
sub-cycling and recovery path — on the thread world and on forked
ranks, and prints one sha256 per run over everything a run reports:
``mean_T``, ``energy``, ``mean_thickness``, ``budget``, ``final_field``,
``exchange_residual``, ``coupling_iterations``, ``coupling_converged``.
It also keeps one digest per reported field of a run, so a comparison
names the ``(configuration, field)`` pairs that moved.

    python benchmarks/ccsm_digests.py [--grids default|bench] [--quick]
                                      [--write FILE | --against FILE]

The thread and process digests of one configuration must be equal, and
``--against FILE`` compares every digest with a file an earlier
``--write FILE`` left (the parent commit's, for a perf change: run this
file there with ``PYTHONPATH=<parent>/src``).  Any difference is listed,
then the ``(configuration, field)`` pairs behind it and the fields that
moved anywhere, and the exit status is 1.  ``--quick`` runs three
configurations (CI's smoke): the explicit step and the implicit step over
each exchange.  No digest is committed: the regrid runs through BLAS and its
low bits belong to the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

# An explicit PYTHONPATH (another commit's src/) wins over this checkout's.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from repro.climate.ccsm import CCSMConfig, run_ccsm  # noqa: E402
from repro.mpi import WorldConfig  # noqa: E402

NSTEPS = 6
BENCH_SHAPES = {
    "atmosphere": (64, 128),
    "ocean": (48, 96),
    "land": (32, 64),
    "ice": (24, 48),
}
PROCS = CCSMConfig().procs
IMPLICIT = {"coupling": "implicit"}
CHECKPOINT = {"checkpoint_every": 2}  # checkpoint_dir is made per run

#: ``name -> (mode, CCSMConfig overrides)``.
CONFIGURATIONS = {
    "explicit_p2p": ("scme", {}),
    "explicit_join": ("scme", {"exchange": "join"}),
    "ice_2": ("scme", {"procs": dict(PROCS, ice=2)}),
    "mcse": ("mcse", {}),
    "mcme": ("mcme", {}),
    "mcme_overlap": ("mcme_overlap", {"procs": dict(PROCS, land=PROCS["atmosphere"])}),
    "checkpoint": ("scme", CHECKPOINT),
    "crash_ocean_3": ("scme", dict(CHECKPOINT, crash_at=("ocean", 3))),
    "crash_ice_4": ("scme", dict(CHECKPOINT, crash_at=("ice", 4))),
    "explicit_subcycle": ("scme", {"subcycle": {"ocean": 3}}),
    "implicit": ("scme", IMPLICIT),
    "implicit_join": ("scme", dict(IMPLICIT, exchange="join")),
    "implicit_mcme": ("mcme", IMPLICIT),
    "implicit_checkpoint": ("scme", dict(IMPLICIT, **CHECKPOINT)),
    "implicit_subcycle": ("scme", dict(IMPLICIT, subcycle={"ocean": 3})),
    "implicit_subcycle_join": (
        "scme",
        dict(IMPLICIT, subcycle={"ocean": 3, "ice": 2}, exchange="join"),
    ),
}
QUICK = ("explicit_p2p", "implicit", "implicit_join")

#: What a digest covers, per component, in this order.
FIELDS = (
    "mean_T",
    "energy",
    "mean_thickness",
    "budget",
    "final_field",
    "exchange_residual",
    "coupling_iterations",
    "coupling_converged",
)


def digests(diags: dict) -> dict[str, str]:
    """sha256 over every reported value of one run, bit for bit: the
    run's under ``""``, and one per field of :data:`FIELDS` over every
    component that reports it."""
    run = hashlib.sha256()
    per_field = {name: hashlib.sha256() for name in FIELDS}
    for kind in sorted(diags):
        for name in FIELDS:
            value = diags[kind].get(name)
            if value is None:
                continue
            if isinstance(value, dict):
                value = [value[k] for k in sorted(value)]
            for h in (run, per_field[name]):
                h.update(f"{kind}.{name}".encode())
                h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    out = {"": run.hexdigest()[:16]}
    out.update((name, h.hexdigest()[:16]) for name, h in per_field.items())
    return out


def run_one(name: str, grids: str, backend: str) -> dict[str, str]:
    mode, overrides = CONFIGURATIONS[name]
    if grids == "bench":
        overrides = dict(overrides, shapes=BENCH_SHAPES)
    with tempfile.TemporaryDirectory(prefix="ccsm-digests-") as tmp:
        if "checkpoint_every" in overrides:
            overrides = dict(overrides, checkpoint_dir=tmp)
        cfg = CCSMConfig(nsteps=NSTEPS, **overrides)
        return digests(run_ccsm(mode, cfg, config=WorldConfig(backend=backend)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grids", choices=("default", "bench"), default="default")
    parser.add_argument("--quick", action="store_true", help="three configurations (CI's smoke)")
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--write", metavar="FILE", help="save the digests as JSON")
    out.add_argument("--against", metavar="FILE", help="compare with a saved file")
    args = parser.parse_args(argv)

    names = QUICK if args.quick else tuple(CONFIGURATIONS)
    # ``grids/name/backend`` for a run, ``grids/name/backend/field`` per field.
    found: dict[str, str] = {}
    differences: list[str] = []
    moved: set[tuple[str, str]] = set()
    for name in names:
        row = {b: run_one(name, args.grids, b) for b in ("thread", "process")}
        thread, process = row["thread"][""], row["process"][""]
        print(f"{args.grids:8s} {name:24s} thread {thread}  process {process}")
        if thread != process:
            differences.append(f"{name}: thread {thread} != process {process}")
            moved.update((name, f) for f in FIELDS if row["thread"][f] != row["process"][f])
        for backend, values in row.items():
            for field, value in values.items():
                found["/".join(filter(None, (args.grids, name, backend, field)))] = value

    if args.write:
        Path(args.write).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    if args.against:
        theirs = json.loads(Path(args.against).read_text())
        for key, value in found.items():
            if theirs.get(key) == value:
                continue
            parts = key.split("/")
            if len(parts) == 3:
                differences.append(f"{key}: {args.against} has {theirs.get(key)}, this run {value}")
            else:
                moved.add((parts[1], parts[3]))
    for line in differences:
        print("DIFFERENT", line)
    for name, field in sorted(moved):
        print("MOVED", name, field)
    if moved:
        print("fields that moved:", ", ".join(f for f in FIELDS if any(m[1] == f for m in moved)))
    runs = sum(1 for key in found if key.count("/") == 2)
    print(f"{runs} digests, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
