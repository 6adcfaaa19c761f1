"""``mphserve`` — run job documents through the MPH service from the
command line.

The thin CLI over :class:`repro.service.orchestrator.Orchestrator`:
each positional argument is a JSON job-document file (``-`` for stdin),
all of them are submitted concurrently against one runtime (so
same-layout process jobs share resident worker worlds; a corpus larger
than ``--max-queued`` waits for room as jobs finish), outcomes are
staged under ``--output-dir``, and a one-line verdict per job goes to
stdout.  Exit status is the number of jobs that did not finish ``done``
(capped at 125), so shells and CI can gate on it.

Programs come from ``--programs MODULE[:ATTR]`` exactly as ``mphrun``
loads them: *MODULE* is imported, *ATTR* (default ``PROGRAMS``) must be
a dict of program-name -> ``fn(comm, env)``.

Examples
--------
Run two documents with the demo catalog, four at a time::

    mphserve --programs my_models --workers 4 \\
        --output-dir out/ jobs/coupled.json jobs/ensemble.json

Validate a document without running it::

    mphserve --check jobs/coupled.json
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro.errors import AdmissionError, JobSpecError, ReproError
from repro.service.jobdoc import JobDocument
from repro.service.orchestrator import JobHandle, JobState, Orchestrator


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mphserve",
        description="Run MPH job documents through the service orchestrator.",
    )
    parser.add_argument(
        "documents",
        nargs="+",
        metavar="JOB.json",
        help="job-document files ('-' reads one document from stdin)",
    )
    parser.add_argument(
        "--programs",
        metavar="MODULE[:ATTR]",
        help="program catalog: import MODULE and use its ATTR dict "
        "(default attribute: PROGRAMS); required unless --check",
    )
    parser.add_argument(
        "--output-dir",
        metavar="DIR",
        help="stage job outcomes under DIR (one subdirectory per job id)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent jobs in flight (default: 2)",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=64,
        metavar="N",
        help="admission bound on the submission queue (default: 64)",
    )
    parser.add_argument(
        "--max-resident",
        type=int,
        default=2,
        metavar="N",
        help="resident worker worlds to keep for process-backend reuse "
        "(default: 2; 0 disables the warm path)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the documents and print their layout keys; run nothing",
    )
    return parser


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _check(paths: Sequence[str]) -> int:
    bad = 0
    for path in paths:
        try:
            doc = JobDocument.from_json(_read_document(path))
        except (JobSpecError, OSError) as exc:
            print(f"{path}: INVALID: {exc}")
            bad += 1
        else:
            print(
                f"{path}: ok name={doc.name!r} world_size={doc.world_size} "
                f"backend={doc.runtime.backend} layout={doc.layout_key()[:16]}"
            )
    return min(bad, 125)


async def _submit(orch: Orchestrator, text: str, handles: list) -> JobHandle:
    """Submit *text*, waiting for room in a full queue: each refusal
    waits for the oldest job still outstanding to finish."""
    while True:
        try:
            return await orch.submit(text)
        except AdmissionError:
            oldest = next((h for _, h in handles if h is not None and not h.finished), None)
            if oldest is None:
                raise
            await oldest.wait()


async def _serve(args: argparse.Namespace, programs: dict) -> int:
    async with Orchestrator(
        programs,
        max_workers=args.workers,
        max_queued=args.max_queued,
        max_resident=args.max_resident,
        output_dir=args.output_dir,
    ) as orch:
        handles = []
        for path in args.documents:
            try:
                text = _read_document(path)
            except OSError as exc:
                print(f"{path}: cannot read: {exc}", file=sys.stderr)
                handles.append((path, None))
                continue
            handles.append((path, await _submit(orch, text, handles)))
        failed = 0
        for path, handle in handles:
            if handle is None:
                failed += 1
                continue
            await handle.wait()
            line = f"{path}: {handle.job_id} {handle.state}"
            if handle.state == JobState.DONE:
                if handle.staged is not None:
                    line += f" -> {handle.staged}"
                if handle.outcome is not None and handle.outcome.warm:
                    line += " (warm)"
            else:
                failed += 1
                if handle.error:
                    line += f": {handle.error}"
            print(line)
        return min(failed, 125)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check:
        return _check(args.documents)
    if not args.programs:
        print("mphserve: --programs is required to run jobs (see --check)", file=sys.stderr)
        return 2
    from repro.launcher.cmdfile import load_programs

    try:
        programs = load_programs(args.programs)
    except (ReproError, ImportError) as exc:
        print(f"mphserve: {exc}", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_serve(args, programs))
    except ReproError as exc:
        print(f"mphserve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
