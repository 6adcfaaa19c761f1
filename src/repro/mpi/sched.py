"""Deterministic schedule exploration for the simulated MPI substrate.

The threads-as-ranks world only ever exercises the interleavings the host
OS scheduler happens to produce, yet MPH's correctness claims quantify
over *every* legal interleaving — exactly the nondeterministic
control-flow hazard of wildcard receives.  This module makes the legal
nondeterminism a seeded, replayable input:

* :class:`MatchSchedule` — armed via
  :attr:`repro.mpi.world.WorldConfig.match_schedule` (one ``is None``
  branch per choice point when off, mirroring ``fault_schedule``).  It
  decides every nondeterministic choice the substrate is allowed to
  make: which candidate a wildcard (``ANY_SOURCE``/``ANY_TAG``) receive
  matches, which pending envelope a probe reports, which completed
  request ``waitany``/``waitsome`` returns first, and whether an
  arriving envelope is *held* invisible for a bounded number of
  visibility events (modelling network delay, i.e. probe visibility and
  delivery-order permutation).  Every reordering it produces is legal
  MPI: per-(source, context) FIFO — the non-overtaking guarantee — is
  enforced structurally, never decided.
* :class:`TraceRecorder` / :class:`MatchTrace` — a compact log of every
  decision, keyed so that per-rank decision streams are reproducible for
  deterministic programs; :meth:`MatchTrace.to_spec` is the plain-data
  form a failing run's dump carries.
* :func:`explore` — the divergence detector: run one program under N
  seeds and diff the per-rank results; differing digests mean the
  program's outcome depends on the schedule — a race.
* :func:`repro_command` — the one-line ``pytest ... --mpi-match-seed=K``
  reproduction command the test plugin
  (``tests/plugins/schedule_sweep.py``) prints on failure.  The seed is
  the whole replay: the same seed rebuilds the same decisions.

Determinism model
-----------------
Real threads cannot give a reproducible *global* interleaving, so no
decision is keyed on wall-clock or arrival order.  Instead every
decision is a pure function of ``(seed, kind, site, occurrence
counter, candidate identity)``:

* wildcard-match and probe choices rank candidates by a per-candidate
  weight ``site_rng(seed, kind, rank, seq, source, tag)`` — the chosen
  *message* depends only on which candidates exist, not on the order
  they happened to arrive or how the list was enumerated;
* hold lengths are keyed per ``(destination, source, per-stream
  delivery index)``, which is the sender's program order;
* the occurrence counters (a receive's post index, a probe's scan
  index) follow the owner rank's own program order.

Under a fixed seed, any program whose candidate sets are determined by
its own synchronization structure (sends complete before a barrier,
receives after) therefore produces a bit-identical
:meth:`MatchTrace.canonical` trace on every run.  Programs that race
unsynchronized senders against a wildcard receive retain *arrival-set*
nondeterminism — which the :func:`explore` detector treats as part of
the race surface being probed, not as something to hide.
"""

from __future__ import annotations

import hashlib
import pickle
import shlex
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import threading

from repro.errors import ReproError
from repro.mpi.faults import site_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import WorldConfig

#: Decision kinds a schedule can record.  ``match`` — which candidate a
#: posted receive claimed (keyed by the receive's per-rank post index);
#: ``probe`` — which pending envelope a probe reported (per-rank scan
#: index); ``waitany``/``waitsome`` — which completed request was
#: returned first (per-rank call index); ``hold`` — the visibility delay
#: decided for one delivery (keyed ``(source, per-stream index)``).
KINDS = ("match", "probe", "waitany", "waitsome", "hold")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded schedule decision.

    ``key`` identifies the decision site deterministically within
    ``(kind, rank)``: the post index for matches, the scan index for
    probes, the call index for waits, ``(source, stream_index)`` for
    holds.  ``cands`` is the candidate tuple the decision chose from —
    ``(source, tag)`` pairs for matches/probes, request indices for
    waits, empty for holds (where ``chosen`` is the hold length).
    """

    kind: str
    rank: int
    key: object
    cands: tuple
    chosen: int


class MatchTrace:
    """An immutable log of schedule decisions, ready to diff or dump."""

    def __init__(self, events: Iterable[TraceEvent] = ()):
        self.events: tuple[TraceEvent, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def canonical(self) -> tuple:
        """The reproducible view of the trace: every non-``hold`` event
        as ``(kind, rank, key, cands, chosen)``, sorted.

        Sorting removes the (non-reproducible) global interleaving of
        per-rank decision streams; ``hold`` events are excluded because
        whether a delivery even *reaches* the hold decision depends on
        whether a matching receive was already posted — an arrival-time
        race the canonical form must not leak.  Hold decisions still
        replay from the seed.
        """
        return tuple(
            sorted(
                (e.kind, e.rank, e.key, e.cands, e.chosen)
                for e in self.events
                if e.kind != "hold"
            )
        )

    def digest(self) -> str:
        """A short stable digest of :meth:`canonical` (race triage)."""
        return hashlib.sha256(repr(self.canonical()).encode()).hexdigest()[:16]

    def to_spec(self) -> dict:
        """Plain-data (JSON-able) form, for a failing run's dump."""
        return {
            "events": [
                [e.kind, e.rank, e.key, e.cands, e.chosen] for e in self.events
            ]
        }

    def __repr__(self) -> str:
        return f"MatchTrace({len(self.events)} events, digest={self.digest()})"


class TraceRecorder:
    """Thread-safe decision log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []

    def record(self, kind: str, rank: int, key, cands: tuple, chosen: int) -> None:
        """Append one decision."""
        with self._lock:
            self._events.append(TraceEvent(kind, rank, key, cands, chosen))

    def trace(self) -> MatchTrace:
        """A consistent snapshot of everything recorded so far."""
        with self._lock:
            return MatchTrace(self._events)


class MatchSchedule:
    """A seeded, replayable schedule of match-order decisions.

    Arm one through the world config::

        schedule = MatchSchedule(seed=7)
        config = WorldConfig(match_schedule=schedule)

    Parameters
    ----------
    seed :
        Derives every decision (candidate weights, hold lengths), so the
        seed alone replays a run.  The earliest-first baseline is a
        disarmed world (``match_schedule=None``).
    hold_prob / hold_max :
        Probability that an unmatched arrival is held invisible, and the
        maximum number of visibility events (deliveries into the same
        mailbox, nonblocking probes) it stays held.  Holds model network
        delay; they are *deadlock-free by construction* — a held
        envelope is force-revealed the moment a matching receive is
        posted or a blocking probe scans for it, so no program blocks on
        a message the schedule is hiding.

    A schedule instance carries per-run counters and its trace; reuse it
    across worlds only after :meth:`reset` (the pytest plugin and
    :func:`explore` build a fresh instance per run instead).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        hold_prob: float = 0.25,
        hold_max: int = 2,
    ):
        if not 0.0 <= hold_prob <= 1.0:
            raise ValueError("hold_prob must be in [0, 1]")
        if hold_max < 0:
            raise ValueError("hold_max must be >= 0")
        self.seed = int(seed)
        self.hold_prob = float(hold_prob)
        self.hold_max = int(hold_max)
        self._lock = threading.Lock()
        self.reset()

    # -- run state ----------------------------------------------------------

    def reset(self) -> None:
        """Clear per-run counters and start a fresh trace, so the same
        schedule replays on a fresh world exactly as built."""
        with self._lock:
            self._seq: dict[tuple[str, int], int] = {}
            self._stream_seq: dict[tuple[int, int], int] = {}
            self._recorder = TraceRecorder()

    def trace(self) -> MatchTrace:
        """The decision trace of the current (or last) run."""
        return self._recorder.trace()

    def _next_seq(self, kind: str, rank: int) -> int:
        with self._lock:
            n = self._seq.get((kind, rank), 0)
            self._seq[(kind, rank)] = n + 1
            return n

    # -- decision hooks (called from the substrate's hot paths) -------------

    def next_post_seq(self, rank: int) -> int:
        """Allocate the post index of *rank*'s next receive (its ``match``
        decision key).  Called by ``Mailbox.post_recv`` — owner-thread
        order, hence deterministic for a deterministic program."""
        return self._next_seq("match", rank)

    def _pick(self, kind: str, rank: int, key, cands: tuple) -> int:
        """One decision: the candidate with the largest seeded weight."""
        if len(cands) == 1:
            return 0
        weights = [
            site_rng(self.seed, kind, rank, key, *(
                c if isinstance(c, tuple) else (c,)
            )).random()
            for c in cands
        ]
        return weights.index(max(weights))

    def choose_match(self, rank: int, post_seq: int, cands: tuple) -> int:
        """Pick which candidate ``(source, tag)`` the receive posted as
        *rank*'s *post_seq*-th claims.  *cands* must already be the legal
        frontier (first matching envelope per source, sorted by
        ``(source, tag)`` so the choice is independent of arrival
        order)."""
        chosen = self._pick("match", rank, post_seq, cands)
        self._recorder.record("match", rank, post_seq, cands, chosen)
        return chosen

    def record_match(self, rank: int, post_seq: int, source: int, tag: int) -> None:
        """Record a forced match (an arriving envelope claimed an
        already-posted receive — MPI mandates posted order, there is no
        choice)."""
        self._recorder.record("match", rank, post_seq, ((source, tag),), 0)

    def choose_probe(self, rank: int, cands: tuple) -> int:
        """Pick which pending envelope a probe reports, among the legal
        frontier.  Consumes one per-rank probe scan index; recorded only
        when a real choice exists."""
        seq = self._next_seq("probe", rank)
        chosen = self._pick("probe", rank, seq, cands)
        if len(cands) > 1:
            self._recorder.record("probe", rank, seq, cands, chosen)
        return chosen

    def choose_wait(self, kind: str, rank: int, cands: tuple) -> int:
        """Pick which completed request ``waitany``/``waitsome`` reports
        first (*cands* are the completed indices, ascending)."""
        seq = self._next_seq(kind, rank)
        chosen = self._pick(kind, rank, seq, cands)
        if len(cands) > 1:
            self._recorder.record(kind, rank, seq, cands, chosen)
        return chosen

    def hold_ttl(self, dest: int, source: int) -> int:
        """Decide the visibility delay of the next delivery on the
        ``source → dest`` stream (0 = visible immediately).

        Called for **every** delivery into *dest* from *source* so the
        per-stream index follows the sender's program order; the mailbox
        applies the hold only when the envelope matched no posted
        receive.  The decision is recorded either way, keyed
        ``(source, stream_index)`` — see :meth:`MatchTrace.canonical`
        for why holds are kept out of the reproducibility comparison.
        """
        with self._lock:
            n = self._stream_seq.get((dest, source), 0)
            self._stream_seq[(dest, source)] = n + 1
        rng = site_rng(self.seed, "hold", dest, source, n)
        ttl = rng.randint(1, self.hold_max) if (
            self.hold_max > 0 and rng.random() < self.hold_prob
        ) else 0
        self._recorder.record("hold", dest, (source, n), (), ttl)
        return ttl

    def to_spec(self) -> dict:
        """A plain-data description of this schedule, for a failing run's
        dump: ``MatchSchedule(**spec)`` rebuilds it."""
        return {
            "seed": self.seed,
            "hold_prob": self.hold_prob,
            "hold_max": self.hold_max,
        }

    def __repr__(self) -> str:
        return (
            f"MatchSchedule(seed={self.seed}, hold_prob={self.hold_prob}, "
            f"hold_max={self.hold_max})"
        )


# -- divergence detection ---------------------------------------------------


@dataclass
class SeedOutcome:
    """One seed's run in an :func:`explore` sweep."""

    seed: int
    ok: bool
    #: Digest of the per-rank return values (or of the error) — the
    #: thing compared across seeds.
    digest: str
    values: Optional[list] = None
    error: Optional[str] = None
    trace: Optional[MatchTrace] = None
    schedule_spec: Optional[dict] = None


@dataclass
class ExplorationReport:
    """What :func:`explore` found across a seed sweep."""

    outcomes: list[SeedOutcome] = field(default_factory=list)

    @property
    def groups(self) -> dict[str, list[int]]:
        """Seeds grouped by outcome digest."""
        by: dict[str, list[int]] = {}
        for o in self.outcomes:
            by.setdefault(o.digest, []).append(o.seed)
        return by

    @property
    def divergent(self) -> bool:
        """Whether any two seeds produced different outcomes — i.e. the
        program's result depends on the schedule (a race)."""
        return len(self.groups) > 1

    def witnesses(self) -> tuple[SeedOutcome, SeedOutcome]:
        """Two outcomes from different groups (raises if not divergent)."""
        groups = self.groups
        if len(groups) < 2:
            raise ReproError("no divergence: all seeds agree")
        (d1, s1), (d2, s2) = list(groups.items())[:2]
        first = next(o for o in self.outcomes if o.seed == s1[0])
        second = next(o for o in self.outcomes if o.seed == s2[0])
        return first, second

    def summary(self) -> str:
        """One line per outcome group, for test failure messages."""
        return "; ".join(
            f"digest {d} ← seeds {seeds}" for d, seeds in self.groups.items()
        )


def _outcome_digest(values) -> str:
    try:
        data = pickle.dumps(values, protocol=4)
    except Exception:  # unpicklable return values: fall back to repr
        data = repr(values).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def explore(
    fn,
    nprocs: int,
    *,
    seeds=10,
    config: Optional["WorldConfig"] = None,
    timeout: float = 60.0,
    hold_prob: float = 0.25,
    hold_max: int = 2,
    fn_args=(),
    fn_kwargs: Optional[dict] = None,
) -> ExplorationReport:
    """Run ``fn`` (an SPMD rank function) under many match-schedule seeds
    and diff the outcomes — the race detector.

    *seeds* is an int (``range(seeds)``) or an iterable of seeds.  Each
    seed gets a fresh world armed with a fresh
    ``MatchSchedule(seed, hold_prob=..., hold_max=...)``; a run that
    raises contributes an error outcome (deadlocks and aborts diverge
    from clean runs, which is itself a schedule-dependence witness).
    """
    from dataclasses import replace

    from repro.mpi.executor import run_spmd
    from repro.mpi.world import WorldConfig

    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    report = ExplorationReport()
    for seed in seed_list:
        schedule = MatchSchedule(seed, hold_prob=hold_prob, hold_max=hold_max)
        cfg = (
            replace(config, match_schedule=schedule)
            if config is not None
            else WorldConfig(match_schedule=schedule)
        )
        try:
            values = run_spmd(
                nprocs, fn, config=cfg, timeout=timeout,
                fn_args=fn_args, fn_kwargs=fn_kwargs,
            )
        except Exception as exc:  # noqa: BLE001 - outcome, not crash
            err = f"{type(exc).__name__}: {exc}"
            report.outcomes.append(
                SeedOutcome(
                    seed=seed,
                    ok=False,
                    digest=_outcome_digest(("error", type(exc).__name__)),
                    error=err,
                    trace=schedule.trace(),
                    schedule_spec=schedule.to_spec(),
                )
            )
        else:
            report.outcomes.append(
                SeedOutcome(
                    seed=seed,
                    ok=True,
                    digest=_outcome_digest(values),
                    values=values,
                    trace=schedule.trace(),
                    schedule_spec=schedule.to_spec(),
                )
            )
    return report


# -- reproduction commands --------------------------------------------------


def repro_command(
    nodeid: str,
    *,
    match_seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
) -> str:
    """The one-line shell command that replays a failing swept test."""
    parts = ["PYTHONPATH=src", "python", "-m", "pytest", shlex.quote(nodeid)]
    if match_seed is not None:
        parts.append(f"--mpi-match-seed={int(match_seed)}")
    if fault_seed is not None:
        parts.append(f"--mpi-fault-seed={int(fault_seed)}")
    return " ".join(parts)
