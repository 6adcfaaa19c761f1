"""In-memory spans for the traced pass of the end-to-end benchmark.

A span is one timed call into a layer, recorded from the benchmark's own
files: ``(rep, track, span_id, parent_id, name, start_ns, end_ns)``.

* *rep* is the identifier every span of one repetition (one coupled run,
  one batch of service jobs) shares;
* *track* is the thread of control that recorded it — the benchmark's
  parent process, or one rank of the world it launched;
* *parent_id* is the span that caused it.  A rank's outermost spans name
  the parent process's ``run`` span, so the tree crosses processes.

Times are ``time.perf_counter_ns()``: on Linux that is CLOCK_MONOTONIC,
which forked ranks share with the parent, so spans from different
processes sit on one axis.  Spans stay in memory (a list of plain
tuples, so ranks ship them home in their return values) and are written
once, at the end, as Chrome-trace JSON.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Iterable, Iterator, Optional

#: Field order of one span tuple.
REP, TRACK, SPAN_ID, PARENT_ID, NAME, START, END = range(7)


class Recorder:
    """Records the spans of one track of one rep."""

    def __init__(self, rep: str, track: str, parent: Optional[str] = None):
        self.rep = rep
        self.track = track
        self.spans: list[tuple] = []
        self._root = parent
        self._stack: list[str] = []

    def add(self, name: str, start_ns: int, end_ns: int) -> str:
        """Record a span whose ends were read elsewhere (for instance a
        launch that began in the parent process); returns its id."""
        span_id = f"{self.track}#{len(self.spans)}"
        parent = self._stack[-1] if self._stack else self._root
        self.spans.append((self.rep, self.track, span_id, parent, name, start_ns, end_ns))
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[str]:
        """Time the enclosed block; nested blocks become child spans."""
        span_id = f"{self.track}#{len(self.spans)}"
        parent = self._stack[-1] if self._stack else self._root
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield span_id
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self.rep, self.track, span_id, parent, name, start, end)


def durations_ms(spans: Iterable[tuple], name: str) -> list[float]:
    """Durations of every span called *name*, in milliseconds."""
    return [(s[END] - s[START]) / 1e6 for s in spans if s[NAME] == name]


def _covered(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Length of the part of ``[start, end]`` that *children* cover
    (children may overlap each other — parallel ranks — so this is the
    measure of their union, clipped to the parent)."""
    covered, reach = 0, start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Iterable[tuple]) -> dict[str, tuple[int, float, float]]:
    """``name -> (count, total_ms, self_ms)`` over *spans*.

    A span's self time is its duration minus the part of that interval
    its child spans cover.
    """
    spans = list(spans)
    children: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT_ID] is not None:
            children[(s[REP], s[PARENT_ID])].append((s[START], s[END]))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        total = s[END] - s[START]
        inner = _covered(s[START], s[END], children.get((s[REP], s[SPAN_ID]), []))
        row = out[s[NAME]]
        row[0] += 1
        row[1] += total / 1e6
        row[2] += (total - inner) / 1e6
    return {name: tuple(row) for name, row in out.items()}


def chrome_trace(spans: Iterable[tuple]) -> dict:
    """*spans* as a Chrome-trace document (``chrome://tracing``,
    Perfetto): one process per rep, one thread per track."""
    spans = list(spans)
    origin = min((s[START] for s in spans), default=0)
    pids: dict[str, int] = {}
    tids: dict[tuple, int] = {}
    events: list[dict] = []
    for s in spans:
        pid = pids.setdefault(s[REP], len(pids) + 1)
        key = (s[REP], s[TRACK])
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tids[key],
                 "args": {"name": s[TRACK]}}
            )
        events.append(
            {
                "ph": "X",
                "name": s[NAME],
                "pid": pid,
                "tid": tids[key],
                "ts": (s[START] - origin) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "args": {"id": s[SPAN_ID], "parent": s[PARENT_ID], "rep": s[REP]},
            }
        )
    for rep, pid in pids.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": rep}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path, spans: Iterable[tuple]) -> None:
    """Write *spans* to *path* as Chrome-trace JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)))
