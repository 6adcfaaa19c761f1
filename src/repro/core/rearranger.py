"""Parallel M×N data rearrangement between component decompositions.

The Model Coupling Toolkit — which "uses MPH" for its handshaking (paper
§7) — is built around exactly this abstraction: a *router* that moves a
distributed field from component A's decomposition straight to component
B's, each process exchanging only the rows that actually change owner,
with no serial gather-at-rank-0 bottleneck.

:class:`Rearranger` reproduces that for 1-D row (latitude-band)
decompositions.  The communication schedule is computed locally from the
shared layout — both sides derive identical block maps, so no negotiation
traffic is needed — computed **once** at construction, and executed with
eager nonblocking sends.  Message volume is Θ(overlapping pairs) instead
of the Θ(P) serial funnel through a root processor; the comparison is
measured in ``benchmarks/bench_rearranger.py``.

Routing runs in buffer mode: per schedule entry, a preallocated float64
staging buffer bound to persistent ``Send_init`` / ``Recv_init``
requests, with the ``(lo, hi)`` row header — and whatever fixed number
of values of its own the caller asked to carry beside it — packed as a
fixed-size prefix (exact for integers below 2**53).  Repeated couplings
pay no pickling, no per-call allocation, and no request re-setup.

A side of a transfer is a component or *one process* of a component,
and the two halves of a transfer can be called apart
(:meth:`Rearranger.send`, :meth:`Rearranger.recv`).  That is the shape
of a flux coupler's exchange, and :mod:`repro.climate.ccsm` is built on
it: every component rank sends its rows straight to the coupler process
that computes — N → 1, the coupling step in each header — and later
takes its rows of the flux straight back, 1 → N, with the coupler's
command; no field is assembled and re-cut on a component's rank 0.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.migration import block_rows
from repro.core.mph import MPH
from repro.errors import MPHError, ProcessFailedError

#: One side of a transfer: a component, or one process of a component.
Side = Union[str, tuple[str, int]]


def overlap_schedule(
    nrows: int, src_size: int, dst_size: int
) -> list[tuple[int, int, int, int]]:
    """The row-exchange schedule between two block decompositions.

    Returns ``(src_local, dst_local, start, stop)`` tuples — global row
    interval ``[start, stop)`` moves from source-local rank *src_local* to
    destination-local rank *dst_local*.  Intervals are disjoint and cover
    every row exactly once.
    """
    out: list[tuple[int, int, int, int]] = []
    for s in range(src_size):
        s0, s1 = block_rows(nrows, src_size, s)
        for d in range(dst_size):
            d0, d1 = block_rows(nrows, dst_size, d)
            lo, hi = max(s0, d0), min(s1, d1)
            if lo < hi:
                out.append((s, d, lo, hi))
    return out


def _members(mph: MPH, side: Side) -> tuple[str, list[int]]:
    """``(component name, global ranks)`` of the processes a side's field
    is block-decomposed over, in decomposition order."""
    if isinstance(side, str):
        return side, list(mph.layout.component(side).world_ranks)
    name, local_rank = side
    return name, [mph.global_id(name, local_rank)]


class Rearranger:
    """A reusable router from one side's rows to another's.

    Parameters
    ----------
    mph :
        The caller's MPH handle (provides the layout and messaging).
    src, dst :
        Each side is a component name-tag — the field is block-decomposed
        over that component's processes — or ``(name, local_rank)``: the
        whole field on that one process of the component (how a serial
        flux coupler holds it).  The two may be the same component (a
        repartition), different components, or components sharing
        processors — a process appearing on both sides sends to itself
        through the normal path.
    nrows, ncols :
        Global field shape being routed.
    tag :
        World-communicator tag for this router's traffic.  Two routers
        used concurrently between overlapping process sets need distinct
        tags.
    extra :
        How many values of the caller's own ride in every message's
        fixed-size header beside ``(lo, hi)`` — a coupling step number, a
        command code: float64 slots, exact for integers below 2**53.

    A transfer is :meth:`send` on the source members and :meth:`recv` on
    the destination members, in that order on a process that is both;
    calling the router does both for one field.
    """

    def __init__(
        self,
        mph: MPH,
        src: Side,
        dst: Side,
        nrows: int,
        ncols: int,
        tag: int = 950_000,
        extra: int = 0,
    ):
        self.mph = mph
        self.src_name, src_ranks = _members(mph, src)
        self.dst_name, dst_ranks = _members(mph, dst)
        self.src_size, self.dst_size = len(src_ranks), len(dst_ranks)
        self.nrows, self.ncols = int(nrows), int(ncols)
        if self.nrows < max(self.src_size, self.dst_size):
            raise MPHError(
                f"cannot block-decompose {self.nrows} rows over "
                f"{max(self.src_size, self.dst_size)} processes"
            )
        self.tag = tag
        me = mph.global_proc_id()
        self._src_local = src_ranks.index(me) if me in src_ranks else -1
        self._dst_local = dst_ranks.index(me) if me in dst_ranks else -1
        #: This process's ``[start, stop)`` rows on the source side and on
        #: the destination side (``(0, 0)`` where it is not a member).
        self.src_rows = (
            block_rows(self.nrows, self.src_size, self._src_local)
            if self._src_local >= 0
            else (0, 0)
        )
        self.dst_rows = (
            block_rows(self.nrows, self.dst_size, self._dst_local)
            if self._dst_local >= 0
            else (0, 0)
        )
        #: The full exchange schedule, computed once and reused by every
        #: routing call and by :meth:`message_count`.
        self._schedule = overlap_schedule(self.nrows, self.src_size, self.dst_size)
        #: Intervals this process sends: ``(dst_local, start, stop)``.
        self.sends = [
            (d, lo, hi) for s, d, lo, hi in self._schedule if s == self._src_local
        ] if self._src_local >= 0 else []
        #: Intervals this process receives: ``(src_local, start, stop)``.
        self.recvs = [
            (s, lo, hi) for s, d, lo, hi in self._schedule if d == self._dst_local
        ] if self._dst_local >= 0 else []
        # Preallocate staging buffers and bind persistent requests: one
        # float64 buffer of ``header + rows*ncols`` elements per schedule
        # entry — elements 0/1 carry ``(lo, hi)``, the next *extra* the
        # caller's values, the rest the row block.  Block decompositions
        # yield at most one interval per (source, destination) pair, so
        # one tag serves every entry.
        self._header = 2 + int(extra)
        world = mph.global_world
        #: ``(staging, request, lo, hi)`` per outgoing interval.
        self._send_plan = []
        for dst_local, lo, hi in self.sends:
            staging = np.empty(self._header + (hi - lo) * self.ncols)
            staging[0], staging[1] = lo, hi
            request = world.Send_init(staging, dst_ranks[dst_local], self.tag)
            self._send_plan.append((staging, request, lo, hi))
        #: ``(rbuf, request, lo, hi)`` per incoming interval.
        self._recv_plan = []
        for src_local, lo, hi in self.recvs:
            rbuf = np.empty(self._header + (hi - lo) * self.ncols)
            request = world.Recv_init(rbuf, src_ranks[src_local], self.tag)
            self._recv_plan.append((rbuf, request, lo, hi))

    # -- introspection -------------------------------------------------------

    def message_count(self) -> int:
        """Total messages one rearrangement moves (schedule size, minus
        self-sends which still count as one delivery each)."""
        return len(self._schedule)

    # -- execution ----------------------------------------------------------------

    def _check_source_block(self, local_block: Optional[np.ndarray]) -> np.ndarray:
        src_start, src_stop = self.src_rows
        if local_block is None:
            raise MPHError(
                f"process is source-local rank {self._src_local} of "
                f"{self.src_name!r} and must pass its block"
            )
        local_block = np.asarray(local_block)
        expected = (src_stop - src_start, self.ncols)
        if local_block.shape != expected:
            raise MPHError(
                f"source block shape {local_block.shape} != expected {expected}"
            )
        return local_block

    def __call__(self, local_block: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Route one field: source members pass their row block, others
        ``None``; destination members receive their new block, others get
        ``None``.

        Collective over the union of both sides.  Eager sends make the
        send-all-then-receive-all order deadlock-free even when the two
        sides share processors.
        """
        self._post()  # receives are up before any traffic moves
        if self._src_local >= 0:
            self.send(local_block)
        if self._dst_local < 0:
            return None
        return self.recv()[0]

    def send(self, local_block: np.ndarray, extra: Sequence[float] = ()) -> None:
        """The source half of a transfer: this process's row block goes
        to the destination processes that own its rows from now on, *extra*
        (as many values as the router was built for) in every header.

        A dead destination does not keep the rows from the live ones:
        every send is attempted, then the first
        :class:`~repro.errors.ProcessFailedError` is raised."""
        if self._src_local < 0:
            raise MPHError(f"process is no source member of {self.src_name!r}")
        local_block = self._check_source_block(local_block)
        if len(extra) != self._header - 2:
            raise MPHError(
                f"router carries {self._header - 2} extra header values, got {len(extra)}"
            )
        src_start = self.src_rows[0]
        failure: Optional[ProcessFailedError] = None
        for staging, req, lo, hi in self._send_plan:
            staging[2 : self._header] = extra
            staging[self._header :] = local_block[lo - src_start : hi - src_start].ravel()
            try:
                req.start()
            except ProcessFailedError as exc:
                failure = failure or exc
                continue
            req.wait()  # eager: completes immediately
            self.mph.profile.record_send(self.dst_name, staging.nbytes)
        if failure is not None:
            raise failure

    def _post(self) -> None:
        for _, req, _, _ in self._recv_plan:
            if not req.active:
                req.start()

    def recv(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """The destination half: this process's new row block and the
        extra header values that came with it (every piece of one
        transfer must carry the same ones).

        Posts whatever receive is not up yet, so everything already sent
        matches at once, then completes them in plan order, parking on
        one request at a time: by the time the first piece is in, the
        others usually are too, so a field costs about one wake-up — a
        ``waitsome`` over all of them is woken by every arrival, which on
        this substrate costs more than unpacking early gains (measured:
        EXPERIMENTS.md, "Trial-step memo and direct exchange").  The
        blocked time is ledgered on the coupling profile."""
        if self._dst_local < 0:
            raise MPHError(f"process is no destination member of {self.dst_name!r}")
        self._post()
        dst_start, dst_stop = self.dst_rows
        out = np.empty((dst_stop - dst_start, self.ncols))
        extra: Optional[tuple[float, ...]] = None
        for rbuf, req, lo, hi in self._recv_plan:
            t0 = time.perf_counter()
            req.wait()
            self.mph.profile.record_wait(time.perf_counter() - t0)
            got_lo, got_hi = int(rbuf[0]), int(rbuf[1])
            if (got_lo, got_hi) != (lo, hi):
                raise MPHError(
                    f"rearranger header mismatch: expected rows [{lo}, {hi}) from "
                    f"{self.src_name!r}, got [{got_lo}, {got_hi})"
                )
            got_extra = tuple(rbuf[2 : self._header].tolist())
            if extra is None:
                extra = got_extra
            elif got_extra != extra:
                raise MPHError(
                    f"rearranger header mismatch: pieces of one transfer from "
                    f"{self.src_name!r} carry {extra} and {got_extra}"
                )
            out[lo - dst_start : hi - dst_start] = rbuf[self._header :].reshape(
                hi - lo, self.ncols
            )
            self.mph.profile.record_recv(self.src_name, rbuf.nbytes)
        assert extra is not None  # every destination member receives a piece
        return out, extra
