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
requests, with the ``(lo, hi)`` row header packed as a fixed-size
two-element prefix (exact for row indices below 2**53).  Repeated
couplings pay no pickling, no per-call allocation, and no request
re-setup.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.migration import block_rows
from repro.core.mph import MPH
from repro.errors import MPHError
from repro.mpi.request import Request


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


class Rearranger:
    """A reusable router from one component's rows to another's.

    Parameters
    ----------
    mph :
        The caller's MPH handle (provides the layout and messaging).
    src_component, dst_component :
        Component name-tags.  They may be the same component (a
        repartition), different components, or components sharing
        processors — a process appearing on both sides sends to itself
        through the normal path.
    nrows, ncols :
        Global field shape being routed.
    tag :
        World-communicator tag for this router's traffic.  Two routers
        used concurrently between overlapping process sets need distinct
        tags.
    """

    def __init__(
        self,
        mph: MPH,
        src_component: str,
        dst_component: str,
        nrows: int,
        ncols: int,
        tag: int = 950_000,
    ):
        self.mph = mph
        self.src = mph.layout.component(src_component)
        self.dst = mph.layout.component(dst_component)
        self.nrows, self.ncols = int(nrows), int(ncols)
        if self.nrows < max(self.src.size, self.dst.size):
            raise MPHError(
                f"cannot block-decompose {self.nrows} rows over "
                f"{max(self.src.size, self.dst.size)} processes"
            )
        self.tag = tag
        me = mph.global_proc_id()
        self._src_local = self.src.local_rank_of(me)
        self._dst_local = self.dst.local_rank_of(me)
        #: The full exchange schedule, computed once and reused by every
        #: routing call and by :meth:`message_count`.
        self._schedule = overlap_schedule(self.nrows, self.src.size, self.dst.size)
        #: Intervals this process sends: ``(dst_local, start, stop)``.
        self.sends = [
            (d, lo, hi) for s, d, lo, hi in self._schedule if s == self._src_local
        ] if self._src_local >= 0 else []
        #: Intervals this process receives: ``(src_local, start, stop)``.
        self.recvs = [
            (s, lo, hi) for s, d, lo, hi in self._schedule if d == self._dst_local
        ] if self._dst_local >= 0 else []
        # Preallocate staging buffers and bind persistent requests: one
        # float64 buffer of ``2 + rows*ncols`` elements per schedule
        # entry — elements 0/1 carry the ``(lo, hi)`` header, the rest
        # the row block.  Block decompositions yield at most one interval
        # per (source, destination) pair, so one tag serves every entry.
        world = mph.global_world
        #: ``(staging, request, lo, hi)`` per outgoing interval.
        self._send_plan = []
        for dst_local, lo, hi in self.sends:
            staging = np.empty(2 + (hi - lo) * self.ncols)
            staging[0], staging[1] = lo, hi
            dest = self.mph.global_id(self.dst.name, dst_local)
            self._send_plan.append((staging, world.Send_init(staging, dest, self.tag), lo, hi))
        #: ``(rbuf, request, lo, hi)`` per incoming interval.
        self._recv_plan = []
        for src_local, lo, hi in self.recvs:
            rbuf = np.empty(2 + (hi - lo) * self.ncols)
            source = self.mph.global_id(self.src.name, src_local)
            self._recv_plan.append((rbuf, world.Recv_init(rbuf, source, self.tag), lo, hi))

    # -- introspection -------------------------------------------------------

    @property
    def src_rows(self) -> tuple[int, int]:
        """This process's ``[start, stop)`` rows on the source side
        (``(0, 0)`` when not a source member)."""
        if self._src_local < 0:
            return (0, 0)
        return block_rows(self.nrows, self.src.size, self._src_local)

    @property
    def dst_rows(self) -> tuple[int, int]:
        """This process's ``[start, stop)`` rows on the destination side."""
        if self._dst_local < 0:
            return (0, 0)
        return block_rows(self.nrows, self.dst.size, self._dst_local)

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
                f"{self.src.name!r} and must pass its block"
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

        Collective over the union of both components.  Eager sends make
        the send-all-then-receive-all order deadlock-free even when the
        two sides share processors.
        """
        if self._dst_local >= 0:
            for _, req, _, _ in self._recv_plan:
                req.start()  # post receives before any traffic moves
        if self._src_local >= 0:
            local_block = self._check_source_block(local_block)
            src_start = self.src_rows[0]
            for staging, req, lo, hi in self._send_plan:
                staging[2:] = local_block[lo - src_start : hi - src_start].ravel()
                req.start()
                req.wait()  # eager: completes immediately
                self.mph.profile.record_send(self.dst.name, staging.nbytes)
        if self._dst_local < 0:
            return None
        dst_start, dst_stop = self.dst_rows
        out = np.empty((dst_stop - dst_start, self.ncols))
        # Complete receives in *arrival* order (MPI_Waitsome) instead of
        # plan order, so one slow peer never serialises the unpacking of
        # blocks that already landed.  Each waitsome call parks at most
        # once on the progress engine; the blocked time is ledgered on the
        # coupling profile.
        remaining = list(range(len(self._recv_plan)))
        while remaining:
            t0 = time.perf_counter()
            done = Request.waitsome([self._recv_plan[i][1] for i in remaining])
            self.mph.profile.record_wait(time.perf_counter() - t0)
            finished = []
            for j, _ in done:
                i = remaining[j]
                rbuf, _, lo, hi = self._recv_plan[i]
                got_lo, got_hi = int(rbuf[0]), int(rbuf[1])
                if (got_lo, got_hi) != (lo, hi):
                    raise MPHError(
                        f"rearranger header mismatch: expected rows [{lo}, {hi}) from "
                        f"{self.src.name!r}, got [{got_lo}, {got_hi})"
                    )
                rows = hi - lo
                out[lo - dst_start : hi - dst_start] = rbuf[2:].reshape(rows, self.ncols)
                self.mph.profile.record_recv(self.src.name, rbuf.nbytes)
                finished.append(i)
            remaining = [i for i in remaining if i not in finished]
        return out
