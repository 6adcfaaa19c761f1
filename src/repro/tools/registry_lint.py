"""``mph-registry`` — validate and explain a registration file.

The registration file is the one input a user hand-edits, so a fast
offline checker saves whole failed job submissions::

    mph-registry processors_map.in
    mph-registry processors_map.in --sizes 20,32,1   # check a launch plan

Without ``--sizes`` the file is parsed and validated and its structure
printed.  With per-executable process counts (command-file order), the
full launch is simulated *offline*: sizes are checked against the
registered ranges and the resolved layout — the same table
``Layout.describe()`` prints inside a running job — is shown.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.layout import ExecutableInfo, Layout
from repro.core.names import RESERVED_PSET_NAMES
from repro.core.registry import (
    MultiComponentEntry,
    MultiInstanceEntry,
    Registry,
    SingleComponentEntry,
)
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The ``mph-registry`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="mph-registry",
        description="Validate an MPH registration file and preview its layout.",
    )
    parser.add_argument("registry", type=Path, help="the processors_map.in file")
    parser.add_argument(
        "--sizes",
        help="comma-separated process count per executable (registry entry order) "
        "to simulate the launch and print the resolved layout",
    )
    parser.add_argument(
        "--rank-policy",
        choices=("block", "round_robin"),
        default="block",
        help="rank-assignment policy for the simulated layout (default: block)",
    )
    return parser


def plan_layout(registry: Registry, sizes: Sequence[int], rank_policy: str = "block") -> Layout:
    """Resolve the layout a launch with these per-entry sizes would get.

    Performs the same validation the runtime handshake does (size vs
    registered ranges), without running anything.
    """
    from repro.launcher.rankmap import assign_ranks

    if len(sizes) != len(registry.entries):
        raise ReproError(
            f"registry has {len(registry.entries)} executables; got {len(sizes)} sizes"
        )
    for entry, size in zip(registry.entries, sizes):
        if isinstance(entry, (MultiComponentEntry, MultiInstanceEntry)):
            if entry.nprocs != size:
                raise ReproError(
                    f"executable {entry.component_names} registers local processors "
                    f"0..{entry.nprocs - 1} ({entry.nprocs}) but the plan gives it {size}"
                )
        elif size < 1:
            raise ReproError(f"executable {entry.component_names} needs >= 1 process")
    assignment = assign_ranks(list(sizes), rank_policy)
    exes = [
        ExecutableInfo(
            exe_id=i,
            entry_index=i,
            kind=entry.kind,
            world_ranks=tuple(assignment[i]),
            component_names=entry.component_names,
            has_overlap=isinstance(entry, MultiComponentEntry) and entry.has_overlap,
        )
        for i, entry in enumerate(registry.entries)
    ]
    return Layout(registry, exes)


def lint_reserved_names(registry: Registry) -> list[str]:
    """Component names that collide with reserved ``mph://`` pset names.

    The sessions layer names every component's process set
    ``mph://component/<name>`` and accepts shorthand lookups
    (``session.pset("world")``).  A component literally named ``world``
    (or ``self``, ``node``, ...) would be shadowed by the built-in pset
    of the same name, so the registry checker rejects it before a job
    ever launches.  Returns one message per violation.
    """
    problems = []
    for entry in registry.entries:
        for name in entry.component_names:
            if name in RESERVED_PSET_NAMES:
                problems.append(
                    f"component name {name!r} collides with the reserved "
                    f"mph:// process-set name mph://{name}; rename it "
                    "(session.pset() shorthand would always resolve to the "
                    "built-in pset instead of the component)"
                )
    return problems


def describe_registry(registry: Registry) -> str:
    """A structural summary of a parsed registration file."""
    lines = [
        f"{len(registry.entries)} executables, {registry.total_components} components"
    ]
    for i, entry in enumerate(registry.entries):
        if isinstance(entry, SingleComponentEntry):
            spec = entry.component
            extra = f"  fields: {' '.join(spec.fields)}" if spec.fields else ""
            lines.append(f"  [{i}] single-component: {spec.name} (size from launcher){extra}")
        elif isinstance(entry, MultiComponentEntry):
            overlap = " (overlapping)" if entry.has_overlap else ""
            lines.append(
                f"  [{i}] multi-component on {entry.nprocs} procs{overlap}:"
            )
            for spec in entry.components:
                lines.append(f"        {spec.name} locals {spec.low}..{spec.high}")
            idle = entry.uncovered_indices()
            if idle:
                lines.append(f"        warning: local processors {idle} run no component")
        else:
            lines.append(f"  [{i}] multi-instance on {entry.nprocs} procs:")
            for spec in entry.instances:
                fields = f"  {' '.join(spec.fields)}" if spec.fields else ""
                lines.append(f"        {spec.name} locals {spec.low}..{spec.high}{fields}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        registry = Registry.from_file(args.registry)
    except (ReproError, OSError) as exc:
        print(f"mph-registry: INVALID: {exc}", file=sys.stderr)
        return 1
    problems = lint_reserved_names(registry)
    if problems:
        for problem in problems:
            print(f"mph-registry: INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"{args.registry}: OK")
    print(describe_registry(registry))
    if args.sizes:
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
            layout = plan_layout(registry, sizes, args.rank_policy)
        except (ReproError, ValueError) as exc:
            print(f"mph-registry: launch plan invalid: {exc}", file=sys.stderr)
            return 1
        print(f"\nsimulated launch ({args.rank_policy}, {sum(sizes)} processes):")
        print(layout.describe())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
