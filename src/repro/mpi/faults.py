"""Deterministic fault injection for the simulated MPI substrate.

MPH's motivating platforms are machines where "a single processor
failure would bring down the entire job"; to test the recovery layer
that prevents exactly that, this module injects the failures on demand.
A :class:`FaultSchedule` is a seeded, replayable list of fault events:

* **rank crash** — a chosen rank dies fail-stop at its N-th communicator
  operation or after a wall-clock delay (raises :class:`SimulatedCrash`,
  which the executor converts into ULFM-style rank death rather than a
  world abort);
* **message drop / delay / duplication / corruption** — applied to the
  N-th delivery into a chosen destination mailbox;
* **slow rank** — deterministic per-operation jitter, for exercising
  timeout and watchdog paths without nondeterminism.

The schedule is armed through
:attr:`repro.mpi.world.WorldConfig.fault_schedule`; when the field is
``None`` (the default) the substrate's only cost is one ``is None``
branch per operation and per delivery, never a call into the schedule
(``tests/mpi/test_faults.py::TestDisabledOverhead``).  Schedules
serialize (:meth:`to_spec` / :meth:`from_spec`) so a failing seed can be
replayed exactly.

Determinism: every random quantity (jitter, corruption bytes) is derived
from ``(seed, site, counter)``, never from shared RNG state, so thread
scheduling cannot change what a schedule does.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.mailbox import Envelope


class SimulatedCrash(ReproError):
    """The fail-stop death of one simulated rank (injected).

    Raised inside the dying rank — by a :class:`FaultSchedule` crash
    event, or directly by test code that wants to kill a rank.  The
    executor treats it specially: the rank is marked *failed* (ULFM
    semantics, survivors keep running and get
    :class:`~repro.errors.ProcessFailedError` from operations that
    involve the dead rank) instead of aborting the whole world.
    """


#: Message-fault kinds applied at delivery time.
_MSG_KINDS = ("drop", "delay", "duplicate", "corrupt")


def site_rng(*key) -> random.Random:
    """An RNG seeded stably from *key* (CRC32 of its repr — ``hash()``
    is per-process randomized, which would break replay).  Shared with
    :mod:`repro.mpi.sched`, which derives every match-order decision the
    same way: a pure function of ``(seed, site, counter)``, never shared
    RNG state, so thread scheduling cannot change what a seed does."""
    return random.Random(zlib.crc32(repr(key).encode()))


class FaultSchedule:
    """A seeded, replayable schedule of injected faults.

    Build one with the fluent event methods, then hand it to the world::

        schedule = FaultSchedule(seed=7).crash_rank(2, at_op=40)
        config = WorldConfig(fault_schedule=schedule)

    Events
    ------
    ``crash_rank(rank, at_op=N)`` / ``crash_rank(rank, after_seconds=s)``
        Rank dies at its N-th communicator operation (deterministic) or
        once *s* seconds have elapsed since the schedule's first
        observed operation (time-based).
    ``drop_message(dest, index)`` / ``delay_message(dest, index, seconds)``
    / ``duplicate_message(dest, index)`` / ``corrupt_message(dest, index)``
        Applied to the *index*-th (0-based) envelope delivered into world
        rank *dest*'s mailbox.
    ``slow_rank(rank, max_jitter)``
        Every operation of *rank* sleeps a deterministic pseudo-random
        amount in ``[0, max_jitter)``.

    A schedule instance carries per-run counters; reuse it across worlds
    only after :meth:`reset` (or replay via ``from_spec(to_spec())``).
    """

    def __init__(self, seed: int = 0):
        #: Seed deriving all pseudo-random decisions (jitter, corruption).
        self.seed = int(seed)
        self._crashes: list[dict] = []
        self._msg_faults: dict[tuple[int, int], dict] = {}
        self._slow: dict[int, float] = {}
        self._lock = threading.Lock()
        self.reset()

    # -- event builders (fluent) -------------------------------------------

    def crash_rank(
        self,
        rank: int,
        *,
        at_op: Optional[int] = None,
        after_seconds: Optional[float] = None,
    ) -> "FaultSchedule":
        """Schedule the fail-stop death of world rank *rank*."""
        if (at_op is None) == (after_seconds is None):
            raise ValueError("crash_rank needs exactly one of at_op / after_seconds")
        if at_op is not None and at_op < 1:
            raise ValueError("at_op counts operations from 1")
        self._crashes.append(
            {"rank": int(rank), "at_op": at_op, "after_seconds": after_seconds}
        )
        return self

    def drop_message(self, dest: int, index: int) -> "FaultSchedule":
        """Silently drop the *index*-th delivery into rank *dest*."""
        return self._add_msg_fault("drop", dest, index)

    def delay_message(self, dest: int, index: int, seconds: float) -> "FaultSchedule":
        """Delay the *index*-th delivery into rank *dest* by *seconds*."""
        return self._add_msg_fault("delay", dest, index, seconds=float(seconds))

    def duplicate_message(self, dest: int, index: int) -> "FaultSchedule":
        """Deliver the *index*-th envelope into rank *dest* twice."""
        return self._add_msg_fault("duplicate", dest, index)

    def corrupt_message(self, dest: int, index: int) -> "FaultSchedule":
        """Flip payload bytes of the *index*-th delivery into rank *dest*."""
        return self._add_msg_fault("corrupt", dest, index)

    def slow_rank(self, rank: int, max_jitter: float) -> "FaultSchedule":
        """Add deterministic per-operation jitter in ``[0, max_jitter)``
        to every communicator operation of *rank*."""
        if max_jitter < 0:
            raise ValueError("max_jitter must be >= 0")
        self._slow[int(rank)] = float(max_jitter)
        return self

    def _add_msg_fault(self, kind: str, dest: int, index: int, **extra) -> "FaultSchedule":
        if kind not in _MSG_KINDS:
            raise ValueError(f"unknown message-fault kind {kind!r}")
        if index < 0:
            raise ValueError("message index counts deliveries from 0")
        key = (int(dest), int(index))
        if key in self._msg_faults:
            raise ValueError(f"delivery {index} into rank {dest} already has a fault")
        self._msg_faults[key] = {"kind": kind, "dest": key[0], "index": key[1], **extra}
        return self

    # -- run state ----------------------------------------------------------

    def reset(self) -> None:
        """Clear per-run counters so the same schedule replays on a fresh
        world exactly as it did on the last one."""
        with self._lock:
            self._op_count: dict[int, int] = {}
            self._deliver_count: dict[int, int] = {}
            self._crashed: set[int] = set()
            self._fired: list[str] = []
            self._t0: Optional[float] = None

    def fired(self) -> list[str]:
        """Human-readable log of the fault events that actually triggered
        (diagnostics; order is trigger order)."""
        with self._lock:
            return list(self._fired)

    def op_count(self, rank: int) -> int:
        """Communicator operations *rank* has made so far this run — the
        number ``crash_rank(at_op=)`` is compared with.  A fault-free
        probe run under an empty schedule reads where in its protocol a
        rank makes its N-th operation."""
        with self._lock:
            return self._op_count.get(rank, 0)

    # -- hooks (called from the substrate's hot paths) ----------------------

    def on_op(self, rank: int) -> None:
        """Per-operation hook, called by ``Comm._check`` on every
        communicator operation of *rank*.  Applies slow-rank jitter and
        raises :class:`SimulatedCrash` when a crash event is due."""
        with self._lock:
            if self._t0 is None:
                self._t0 = time.monotonic()
            ops = self._op_count.get(rank, 0) + 1
            self._op_count[rank] = ops
            due: Optional[dict] = None
            if rank not in self._crashed:
                for crash in self._crashes:
                    if crash["rank"] != rank:
                        continue
                    at_op = crash["at_op"]
                    if at_op is not None and ops >= at_op:
                        due = crash
                        break
                    after = crash["after_seconds"]
                    if after is not None and time.monotonic() - self._t0 >= after:
                        due = crash
                        break
            if due is not None:
                self._crashed.add(rank)
                self._fired.append(f"crash rank {rank} at op {ops}")
        jitter = self._slow.get(rank)
        if jitter:
            # Derived from (seed, rank, op) so thread interleaving cannot
            # change the injected delay.
            time.sleep(site_rng(self.seed, "jitter", rank, ops).uniform(0.0, jitter))
        if due is not None:
            raise SimulatedCrash(f"injected crash of rank {rank} at op {ops}")

    def on_deliver(self, dest: int, env: "Envelope") -> list["Envelope"]:
        """Per-delivery hook, called by ``Mailbox.deliver`` on the
        sender's thread.  Returns the envelopes to actually deliver:
        ``[]`` (dropped), ``[env]`` (unchanged / delayed / corrupted), or
        ``[env, dup]`` (duplicated)."""
        with self._lock:
            index = self._deliver_count.get(dest, 0)
            self._deliver_count[dest] = index + 1
            fault = self._msg_faults.get((dest, index))
            if fault is not None:
                self._fired.append(f"{fault['kind']} delivery {index} into rank {dest}")
        if fault is None:
            return [env]
        kind = fault["kind"]
        if kind == "drop":
            return []
        if kind == "delay":
            time.sleep(fault["seconds"])
            return [env]
        if kind == "duplicate":
            return [env, _duplicate_envelope(env)]
        return [_corrupt_envelope(env, self.seed, dest, index)]

    # -- replay ------------------------------------------------------------

    def to_spec(self) -> dict:
        """A plain-data description of the schedule, sufficient to rebuild
        it exactly with :meth:`from_spec` (reproduce a failing seed)."""
        return {
            "seed": self.seed,
            "crashes": [dict(c) for c in self._crashes],
            "messages": [dict(m) for m in self._msg_faults.values()],
            "slow": dict(self._slow),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultSchedule":
        """Rebuild a schedule serialized by :meth:`to_spec`."""
        fs = cls(seed=spec.get("seed", 0))
        for crash in spec.get("crashes", ()):
            fs.crash_rank(
                crash["rank"],
                at_op=crash.get("at_op"),
                after_seconds=crash.get("after_seconds"),
            )
        for msg in spec.get("messages", ()):
            extra = {k: v for k, v in msg.items() if k not in ("kind", "dest", "index")}
            fs._add_msg_fault(msg["kind"], msg["dest"], msg["index"], **extra)
        for rank, jitter in spec.get("slow", {}).items():
            fs.slow_rank(int(rank), jitter)
        return fs

    def __repr__(self) -> str:
        return (
            f"FaultSchedule(seed={self.seed}, crashes={len(self._crashes)}, "
            f"messages={len(self._msg_faults)}, slow={sorted(self._slow)})"
        )


def random_schedule(
    seed: int,
    nprocs: int,
    *,
    crashes: int = 1,
    max_op: int = 60,
    spare=(),
) -> FaultSchedule:
    """A seeded random crash schedule for chaos testing: *crashes* distinct
    ranks (never those in *spare*) die at an operation count in
    ``[1, max_op]``.  Same seed → same schedule."""
    rng = site_rng(seed, "chaos", nprocs)
    candidates = [r for r in range(nprocs) if r not in set(spare)]
    if crashes > len(candidates):
        raise ValueError(f"cannot crash {crashes} of {len(candidates)} eligible ranks")
    fs = FaultSchedule(seed=seed)
    for rank in rng.sample(candidates, crashes):
        fs.crash_rank(rank, at_op=rng.randint(1, max_op))
    return fs


def _duplicate_envelope(env: "Envelope") -> "Envelope":
    """A second delivery of *env*: same routing and payload, but no
    ``sync_event`` (a synchronous sender must not be released twice)."""
    from repro.mpi.mailbox import Envelope

    return Envelope(
        env.context,
        env.source,
        env.tag,
        env.payload,
        env.kind,
        env.count,
        sync_event=None,
        op=env.op,
        copy_avoided=env.copy_avoided,
    )


def _corrupt_envelope(env: "Envelope", seed: int, dest: int, index: int) -> "Envelope":
    """Deterministically mangle *env*'s payload (bit flips for pickle
    blobs, value garbling for array blobs) without touching the sender's
    copy."""
    from repro.mpi.mailbox import Envelope
    from repro.mpi.serialization import Blob

    rng = site_rng(seed, "corrupt", dest, index)
    payload = env.payload
    if payload.kind == "pickle":
        data = bytearray(payload.data)
        for _ in range(max(1, len(data) // 64)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        corrupted = Blob("pickle", bytes(data), len(data))
    else:
        arr = np.array(payload.data, copy=True)
        flat = arr.reshape(-1)
        if flat.size:
            flat[rng.randrange(flat.size)] = flat[rng.randrange(flat.size)] * -3 + 1
        arr.setflags(write=False)
        corrupted = Blob("array", arr, payload.nbytes)
    return Envelope(
        env.context,
        env.source,
        env.tag,
        corrupted,
        env.kind,
        env.count,
        sync_event=env.sync_event,
        op=env.op,
        copy_avoided=0,
    )
