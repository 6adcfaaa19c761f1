"""The simulated wide-area link between clusters.

A :class:`GridChannel` carries tagged, encoded messages between named
clusters with a configurable one-way latency and bandwidth.  Delivery
semantics mirror the intra-cluster mailboxes — per-sender FIFO, earliest
match wins — but a message only becomes *visible* once its simulated
arrival time has passed, which is what makes latency experiments honest:
a zero-latency channel and a 50 ms channel run the same code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ReproError
from repro.mpi.serialization import Blob

#: Fallback poll interval while waiting for a cross-grid message whose
#: simulated arrival time has not been reached yet and no earlier wake is
#: scheduled (normally the wait is sized exactly to the next arrival).
_WAIT_SLICE = 0.05


@dataclass
class GridEnvelope:
    """One message in flight on the wide-area link."""

    src_cluster: str
    dest_cluster: str
    component: str
    local_rank: int
    tag: int
    #: Encoded payload (value semantics across sites, like everywhere else).
    payload: Blob
    #: Simulated arrival time (``time.monotonic`` seconds).
    visible_at: float = 0.0

    def matches(self, component: str, local_rank: int, tag: Optional[int], src: Optional[str]) -> bool:
        """Whether this envelope satisfies a receive pattern (``None``
        fields are wildcards)."""
        return (
            self.component == component
            and self.local_rank == local_rank
            and (tag is None or self.tag == tag)
            and (src is None or self.src_cluster == src)
        )


class GridChannel:
    """A shared wide-area fabric connecting every cluster of a session.

    Parameters
    ----------
    clusters :
        The participating cluster names.
    latency :
        One-way delivery delay in seconds (default 0: instant).
    bandwidth :
        Optional bytes/second; adds ``size / bandwidth`` to the delay, the
        standard alpha–beta cost model.
    """

    def __init__(
        self,
        clusters: list[str],
        latency: float = 0.0,
        bandwidth: Optional[float] = None,
    ):
        if len(set(clusters)) != len(clusters) or not clusters:
            raise ReproError(f"cluster names must be non-empty and distinct: {clusters}")
        if latency < 0:
            raise ReproError(f"latency must be >= 0, got {latency}")
        self.clusters = list(clusters)
        self.latency = latency
        self.bandwidth = bandwidth
        self._cond = threading.Condition()
        self._queues: dict[str, list[GridEnvelope]] = {c: [] for c in clusters}
        #: Total messages and bytes carried (for the benchmarks).
        self.messages_carried = 0
        self.bytes_carried = 0

    def _check_cluster(self, name: str) -> None:
        if name not in self._queues:
            raise ReproError(f"unknown cluster {name!r}; session has {self.clusters}")

    def delay_for(self, nbytes: int) -> float:
        """The alpha–beta delivery delay for a message of *nbytes*."""
        beta = nbytes / self.bandwidth if self.bandwidth else 0.0
        return self.latency + beta

    # -- sending ------------------------------------------------------------

    def post(
        self,
        src_cluster: str,
        dest_cluster: str,
        component: str,
        local_rank: int,
        tag: int,
        obj: Any,
    ) -> None:
        """Send *obj* to ``(dest_cluster, component, local_rank)``."""
        self._check_cluster(src_cluster)
        self._check_cluster(dest_cluster)
        payload = Blob.encode(obj)
        env = GridEnvelope(
            src_cluster=src_cluster,
            dest_cluster=dest_cluster,
            component=component,
            local_rank=local_rank,
            tag=tag,
            payload=payload,
            visible_at=time.monotonic() + self.delay_for(payload.nbytes),
        )
        with self._cond:
            self._queues[dest_cluster].append(env)
            self.messages_carried += 1
            self.bytes_carried += payload.nbytes
            self._cond.notify_all()

    # -- receiving -------------------------------------------------------------

    def collect(
        self,
        cluster: str,
        component: str,
        local_rank: int,
        tag: Optional[int] = None,
        src_cluster: Optional[str] = None,
        timeout: float = 60.0,
    ) -> tuple[Any, str, int]:
        """Blocking receive for the process ``(cluster, component,
        local_rank)``; returns ``(obj, src_cluster, tag)``.

        Messages are matched earliest-posted-first among those whose
        simulated arrival time has passed.
        """
        self._check_cluster(cluster)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                queue = self._queues[cluster]
                # One pass both matches visible envelopes and finds the
                # next simulated arrival among matching in-flight ones, so
                # the wait below is event-driven: sized exactly to that
                # arrival (or the timeout) instead of a fixed poll slice.
                next_visible: Optional[float] = None
                for env in queue:
                    if env.matches(component, local_rank, tag, src_cluster):
                        if env.visible_at <= now:
                            queue.remove(env)
                            return env.payload.decode(), env.src_cluster, env.tag
                        if next_visible is None or env.visible_at < next_visible:
                            next_visible = env.visible_at
                if now > deadline:
                    raise ReproError(
                        f"grid receive timed out after {timeout}s: "
                        f"({cluster}, {component}, {local_rank}, tag={tag})"
                    )
                # post() notifies on every new arrival, so the only timed
                # event to wake for is the next simulated arrival (or the
                # caller's deadline); _WAIT_SLICE caps the gap defensively.
                wake_at = min(next_visible or (now + _WAIT_SLICE), deadline)
                self._cond.wait(timeout=max(wake_at - now, 0.0))

    def pending(self, cluster: str) -> int:
        """Messages currently queued for *cluster* (diagnostics)."""
        self._check_cluster(cluster)
        with self._cond:
            return len(self._queues[cluster])
