"""Cross-grid registration and the GridMPH handle.

``grid_setup`` extends a completed intra-cluster handshake across sites:
each cluster's world rank 0 publishes its component table on the wide-area
channel, collects every other cluster's, and broadcasts the assembled
:class:`GridDirectory` over the local world.  After that, any process can
message any component on any cluster by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.mph import MPH
from repro.errors import ReproError
from repro.grid.channel import GridChannel

#: Channel tag reserved for the directory exchange.
_DIRECTORY_TAG = -1


@dataclass(frozen=True)
class RemoteComponent:
    """What one cluster publishes about one of its components."""

    cluster: str
    name: str
    size: int


class GridDirectory:
    """The assembled cross-grid component map (identical on every process
    of every cluster)."""

    def __init__(self, components: list[RemoteComponent]):
        self.components = tuple(components)
        self._by_key: dict[tuple[str, str], RemoteComponent] = {
            (c.cluster, c.name): c for c in self.components
        }

    def lookup(self, cluster: str, component: str) -> RemoteComponent:
        """The directory entry for ``(cluster, component)``."""
        entry = self._by_key.get((cluster, component))
        if entry is None:
            known = sorted({c.cluster for c in self.components})
            raise ReproError(
                f"no component {component!r} on cluster {cluster!r}; "
                f"clusters in this grid session: {known}"
            )
        return entry

    def clusters(self) -> list[str]:
        """All participating clusters, sorted."""
        return sorted({c.cluster for c in self.components})


class GridMPH:
    """A process's handle for cross-grid messaging.

    Wraps the local :class:`~repro.core.mph.MPH` handle; intra-cluster
    operations pass straight through to it, while :meth:`send` /
    :meth:`recv` with a cluster argument travel the wide-area channel.
    """

    def __init__(self, mph: MPH, cluster: str, channel: GridChannel, directory: GridDirectory):
        self.mph = mph
        self.cluster = cluster
        self.channel = channel
        self.directory = directory

    # -- messaging -----------------------------------------------------------

    def send(
        self, obj: Any, cluster: str, component: str, local_rank: int, tag: int = 0
    ) -> None:
        """Send *obj* to ``(cluster, component, local_rank)``.

        Same-cluster destinations short-circuit to ordinary MPH messaging —
        no wide-area hop for local traffic.
        """
        entry = self.directory.lookup(cluster, component)
        if not 0 <= local_rank < entry.size:
            raise ReproError(
                f"component {component!r} on {cluster!r} has {entry.size} processes; "
                f"local rank {local_rank} out of range"
            )
        if cluster == self.cluster:
            self.mph.send(obj, component, local_rank, tag)
            return
        self.channel.post(self.cluster, cluster, component, local_rank, tag, obj)

    def recv(
        self,
        tag: Optional[int] = None,
        src_cluster: Optional[str] = None,
        timeout: float = 60.0,
    ) -> tuple[Any, str, int]:
        """Receive a cross-grid message addressed to this process; returns
        ``(obj, src_cluster, tag)``.

        Only wide-area traffic arrives here; intra-cluster messages use the
        ordinary ``mph.recv`` path.
        """
        return self.channel.collect(
            self.cluster,
            self.mph.comp_name(),
            self.mph.local_proc_id(),
            tag=tag,
            src_cluster=src_cluster,
            timeout=timeout,
        )

    # -- inquiry ----------------------------------------------------------------

    def remote_component_size(self, cluster: str, component: str) -> int:
        """Processor count of a component anywhere on the grid."""
        return self.directory.lookup(cluster, component).size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GridMPH {self.cluster}/{self.mph.comp_name()}>"


def grid_setup(mph: MPH, cluster: str, channel: GridChannel) -> GridMPH:
    """Extend a completed local handshake across the grid.

    Collective over the *local* world (every process of the cluster calls
    it); cluster world rank 0 performs the wide-area directory exchange.
    """
    world = mph.global_world
    directory: Optional[GridDirectory] = None
    if world.rank == 0:
        mine = [
            RemoteComponent(cluster=cluster, name=c.name, size=c.size)
            for c in mph.layout.components
        ]
        for other in channel.clusters:
            if other != cluster:
                channel.post(cluster, other, "__directory__", 0, _DIRECTORY_TAG, mine)
        table: list[RemoteComponent] = list(mine)
        for _ in range(len(channel.clusters) - 1):
            theirs, _, _ = channel.collect(
                cluster, "__directory__", 0, tag=_DIRECTORY_TAG
            )
            table.extend(theirs)
        # Deterministic order: by cluster name, then publication order.
        table.sort(key=lambda c: c.cluster)
        directory = GridDirectory(table)
    directory = world.bcast(directory)
    return GridMPH(mph, cluster, channel, directory)
