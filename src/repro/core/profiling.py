"""Per-process coupling-communication profile.

Knowing *which component pairs* exchange how many messages — and how many
bytes — is the first question when a coupled system underperforms (the
hpc-parallel rule: measure before optimising).  Every name-addressed MPH
send/receive is counted here, cheaply, per process; :meth:`CommProfile.describe`
renders the local ledger and :func:`gather_profiles` assembles the
application-wide component-to-component traffic matrix on a chosen
processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mph import MPH


@dataclass
class CommProfile:
    """Message and byte counters of one process, keyed by peer component."""

    #: Messages this process sent, by destination component.
    sent: dict[str, int] = field(default_factory=dict)
    #: Messages this process received, by source component.
    received: dict[str, int] = field(default_factory=dict)
    #: Payload bytes this process sent, by destination component.
    bytes_sent: dict[str, int] = field(default_factory=dict)
    #: Payload bytes this process received, by source component.
    bytes_received: dict[str, int] = field(default_factory=dict)
    #: Blocking receive/wait calls this process performed inside coupling
    #: exchanges (including those that completed immediately).
    waits: int = 0
    #: Seconds spent inside those calls (the coupling "idle" cost the
    #: progress engine is built to keep cheap).
    wait_seconds: float = 0.0

    def record_send(self, component: str, nbytes: int = 0) -> None:
        """Count one send of *nbytes* payload bytes to *component*."""
        self.sent[component] = self.sent.get(component, 0) + 1
        self.bytes_sent[component] = self.bytes_sent.get(component, 0) + nbytes

    def record_recv(
        self, component: str, nbytes: int = 0, seconds: Optional[float] = None
    ) -> None:
        """Count one receive of *nbytes* payload bytes from *component*;
        with *seconds*, it was a blocking receive of that long inside a
        coupling exchange, counted in :attr:`waits` too — a receive's
        whole ledger in one call."""
        self.received[component] = self.received.get(component, 0) + 1
        self.bytes_received[component] = self.bytes_received.get(component, 0) + nbytes
        if seconds is not None:
            self.waits += 1
            self.wait_seconds += seconds

    @property
    def total_sent(self) -> int:
        """All messages sent by this process."""
        return sum(self.sent.values())

    @property
    def total_received(self) -> int:
        """All messages received by this process."""
        return sum(self.received.values())

    @property
    def total_bytes_sent(self) -> int:
        """All payload bytes sent by this process."""
        return sum(self.bytes_sent.values())

    @property
    def total_bytes_received(self) -> int:
        """All payload bytes received by this process."""
        return sum(self.bytes_received.values())

    def merge(self, other: "CommProfile") -> "CommProfile":
        """Elementwise sum with another profile (used by gathering)."""
        out = CommProfile(
            dict(self.sent),
            dict(self.received),
            dict(self.bytes_sent),
            dict(self.bytes_received),
            self.waits + other.waits,
            self.wait_seconds + other.wait_seconds,
        )
        for comp, n in other.sent.items():
            out.sent[comp] = out.sent.get(comp, 0) + n
        for comp, n in other.received.items():
            out.received[comp] = out.received.get(comp, 0) + n
        for comp, n in other.bytes_sent.items():
            out.bytes_sent[comp] = out.bytes_sent.get(comp, 0) + n
        for comp, n in other.bytes_received.items():
            out.bytes_received[comp] = out.bytes_received.get(comp, 0) + n
        return out

    def describe(self) -> str:
        """The local ledger as readable text."""
        lines = [
            f"sent {self.total_sent} / received {self.total_received} messages "
            f"({self.total_bytes_sent} B out, {self.total_bytes_received} B in)"
        ]
        if self.waits:
            lines.append(
                f"  waited in {self.waits} blocking calls for "
                f"{self.wait_seconds * 1e3:.1f} ms total"
            )
        for comp in sorted(set(self.sent) | set(self.received)):
            lines.append(
                f"  {comp:<16s} -> {self.sent.get(comp, 0):>6d} sent, "
                f"{self.received.get(comp, 0):>6d} received "
                f"({self.bytes_sent.get(comp, 0)} B out, "
                f"{self.bytes_received.get(comp, 0)} B in)"
            )
        return "\n".join(lines)


def gather_profiles(mph: "MPH", root_component: str) -> Optional[dict[str, CommProfile]]:
    """Assemble every component's aggregate profile on *root_component*'s
    local processor 0.

    Collective over the global world.  Returns ``component name ->
    merged profile`` on the root processor, ``None`` elsewhere.  Message
    and byte counters are both merged.
    """
    world = mph.global_world
    root_rank = mph.global_id(root_component, 0)
    mine = (tuple(mph.comp_names()), mph.profile)
    gathered = world.gather(mine, root=root_rank)
    if world.rank != root_rank:
        return None
    assert gathered is not None
    merged: dict[str, CommProfile] = {}
    for names, profile in gathered:
        for name in names:
            merged[name] = merged.get(name, CommProfile()).merge(profile)
    return merged
