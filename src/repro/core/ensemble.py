"""Ensemble-simulation support on top of multi-instance executables (§2.5).

The paper's motivation for MIME: "It is sometimes advantageous to do the K
runs simultaneously: (a) Nonlinear order statistics can be computed by
aggregating instantaneous fields from K runs periodically; (b) Based on
simulation results on the current K runs, the future simulation direction
can be dynamically adjusted at real time.  Nonlinear statistics and
dynamical control cannot be done if the K runs are performed as independent
runs."

This module provides the pieces the paper's two worked scenarios need:

* :class:`EnsembleMember` — run inside each instance; reports instantaneous
  fields to the statistics component and polls for control updates;
* :class:`EnsembleCollector` — run inside the statistics (single-component)
  executable; gathers the K fields each step, computes linear *and
  nonlinear* statistics, and pushes dynamic control decisions back;
* :class:`OnlineMoments` — Welford streaming mean/variance for on-the-fly
  time aggregation with zero intermediate storage (the "eliminates large
  data output and storage for post-processing averaging" claim, benchmarked
  against the independent-jobs baseline in experiment E10).

The collector addresses every instance by its expanded name — a
specific source, never ``ANY_SOURCE`` — so ensemble statistics are
schedule-independent: an armed
:class:`~repro.mpi.sched.MatchSchedule` permuting match orders cannot
change a collected mean (asserted across seeds in
``tests/mpi/test_sched.py::TestEnsembleScheduleIndependence``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.mph import MPH
from repro.errors import MPHError, ProcessFailedError

#: Reserved world-communicator tags for the ensemble protocol.  User
#: traffic should avoid this narrow band (documented in the README).
REPORT_TAG = 900_001
CONTROL_TAG = 900_002


class OnlineMoments:
    """Streaming mean/variance over arrays (Welford's algorithm).

    Numerically stable single-pass moments: exactly what an on-the-fly
    ensemble/time aggregator needs, since no per-step fields are retained.

    >>> om = OnlineMoments()
    >>> for x in ([1.0, 2.0], [3.0, 4.0]):
    ...     om.push(np.array(x))
    >>> om.mean
    array([2., 3.])
    """

    def __init__(self) -> None:
        self.n = 0
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None

    def push(self, x: np.ndarray) -> None:
        """Accumulate one sample (array shape must stay constant)."""
        x = np.asarray(x, dtype=float)
        if self._mean is None:
            self._mean = np.zeros_like(x)
            self._m2 = np.zeros_like(x)
        elif x.shape != self._mean.shape:
            raise MPHError(
                f"OnlineMoments sample shape {x.shape} != established shape {self._mean.shape}"
            )
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> np.ndarray:
        """Sample mean so far."""
        if self._mean is None:
            raise MPHError("no samples pushed")
        return self._mean

    @property
    def variance(self) -> np.ndarray:
        """Population variance so far (0 for a single sample)."""
        if self._m2 is None:
            raise MPHError("no samples pushed")
        return self._m2 / max(self.n, 1)

    @property
    def std(self) -> np.ndarray:
        """Population standard deviation so far."""
        return np.sqrt(self.variance)


@dataclass
class EnsembleStats:
    """Statistics of one collection step across the K instances."""

    step: int
    #: Instance name -> reported field, in registration order.
    fields: dict[str, np.ndarray]

    def stacked(self) -> np.ndarray:
        """The K fields stacked along a leading ensemble axis."""
        return np.stack(list(self.fields.values()))

    @property
    def mean(self) -> np.ndarray:
        """Ensemble mean (a *linear* statistic — computable offline too)."""
        return self.stacked().mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        """Ensemble standard deviation."""
        return self.stacked().std(axis=0)

    @property
    def minimum(self) -> np.ndarray:
        """Pointwise ensemble minimum (nonlinear order statistic)."""
        return self.stacked().min(axis=0)

    @property
    def maximum(self) -> np.ndarray:
        """Pointwise ensemble maximum (nonlinear order statistic)."""
        return self.stacked().max(axis=0)

    @property
    def median(self) -> np.ndarray:
        """Pointwise ensemble median (nonlinear order statistic — this is
        what independent runs cannot produce without storing every field)."""
        return np.median(self.stacked(), axis=0)

    def percentile(self, q: float) -> np.ndarray:
        """Pointwise ensemble percentile *q* in [0, 100]."""
        return np.percentile(self.stacked(), q, axis=0)

    def spread(self) -> float:
        """Scalar ensemble spread: mean pointwise max-min range."""
        stacked = self.stacked()
        return float((stacked.max(axis=0) - stacked.min(axis=0)).mean())

    def rank_histogram(self, observation: np.ndarray) -> np.ndarray:
        """Pointwise rank histogram (Talagrand diagram) of *observation*
        within the ensemble: counts of how often the observation falls in
        each of the K+1 slots between the sorted members.

        A flat histogram means the observation is statistically
        indistinguishable from the members — the standard ensemble
        calibration check, and a *nonlinear* statistic only an on-the-fly
        (or store-everything) ensemble can produce.
        """
        stacked = np.sort(self.stacked(), axis=0)
        obs = np.asarray(observation, dtype=float)
        if obs.shape != stacked.shape[1:]:
            raise MPHError(
                f"observation shape {obs.shape} != field shape {stacked.shape[1:]}"
            )
        ranks = (stacked < obs).sum(axis=0)
        k = stacked.shape[0]
        return np.bincount(ranks.ravel(), minlength=k + 1)

    def crps(self, observation: np.ndarray) -> float:
        """Mean continuous ranked probability score against *observation*.

        The standard ensemble-verification score, via the kernel form
        ``CRPS = E|X - y| - E|X - X'| / 2`` computed pointwise and
        averaged over the field (lower is better; collapses to the mean
        absolute error for a one-member ensemble).
        """
        stacked = self.stacked()
        obs = np.asarray(observation, dtype=float)
        if obs.shape != stacked.shape[1:]:
            raise MPHError(
                f"observation shape {obs.shape} != field shape {stacked.shape[1:]}"
            )
        term1 = np.abs(stacked - obs).mean(axis=0)
        term2 = np.abs(stacked[:, None] - stacked[None, :]).mean(axis=(0, 1))
        return float((term1 - 0.5 * term2).mean())


class EnsembleMember:
    """Instance-side half of the ensemble protocol.

    Run by every process of a multi-instance executable; only the
    instance's local processor 0 actually communicates.
    """

    def __init__(self, mph: MPH, statistics_component: str):
        self.mph = mph
        self.statistics_component = statistics_component
        self.instance_name = mph.comp_name()
        self._is_reporter = mph.local_proc_id() == 0

    def report(self, step: int, field: np.ndarray) -> None:
        """Send this instance's instantaneous field for *step* to the
        statistics component (local processor 0 only; no-op elsewhere)."""
        if self._is_reporter:
            self.mph.send(
                (self.instance_name, step, np.asarray(field)),
                self.statistics_component,
                0,
                REPORT_TAG,
            )

    def receive_control(self) -> dict[str, Any]:
        """Block for the controller's decision for the current step
        (local processor 0), then share it with the whole instance."""
        comm = self.mph.component_comm(self.instance_name)
        control: Optional[dict[str, Any]] = None
        if self._is_reporter:
            control = self.mph.recv(self.statistics_component, 0, CONTROL_TAG)
        return comm.bcast(control, root=0)


class EnsembleCollector:
    """Statistics-side half of the ensemble protocol.

    Run by the single-component statistics executable (its local processor
    0 does the communication; results are broadcast over the component).
    """

    def __init__(self, mph: MPH, instance_names: Sequence[str]):
        if not instance_names:
            raise MPHError("EnsembleCollector needs at least one instance name")
        self.mph = mph
        self.instance_names = list(instance_names)
        self._comm = mph.component_comm()
        #: Per-instance streaming time aggregation of the ensemble means.
        self.time_moments = OnlineMoments()
        #: Instances observed dead, in detection order — the degradation
        #: report.  Kept identical on every statistics process (rank 0
        #: detects, :meth:`collect` broadcasts).
        self.degraded_instances: list[str] = []

    @classmethod
    def for_prefix(cls, mph: MPH, prefix: str) -> "EnsembleCollector":
        """Collect from every component whose name extends *prefix* (the
        registration file's expanded instance names)."""
        names = [
            c.name
            for c in mph.layout.components
            if c.name.startswith(prefix) and len(c.name) > len(prefix)
        ]
        return cls(mph, names)

    @property
    def k(self) -> int:
        """Ensemble size as registered (dead instances included)."""
        return len(self.instance_names)

    @property
    def live_instance_names(self) -> list[str]:
        """Instances still contributing (not observed dead), in
        registration order."""
        gone = set(self.degraded_instances)
        return [n for n in self.instance_names if n not in gone]

    @property
    def live_k(self) -> int:
        """Number of instances still contributing."""
        return len(self.live_instance_names)

    def collect(self, step: int) -> EnsembleStats:
        """Gather the instantaneous fields for *step* from every live
        instance (collective over the statistics component).

        An instance whose reporter died is moved to
        :attr:`degraded_instances` instead of stalling the collection —
        the surviving K-1 runs keep aggregating, with the ensemble
        statistics computed over the remaining members (the *degraded
        mean*).  Raises :class:`MPHError` on every statistics process
        once no instance is left.
        """
        payload: Optional[tuple[dict[str, np.ndarray], list[str]]] = None
        if self._comm.rank == 0:
            fields: dict[str, np.ndarray] = {}
            for name in self.live_instance_names:
                try:
                    got_name, got_step, field = self.mph.recv(name, 0, REPORT_TAG)
                except ProcessFailedError:
                    self.degraded_instances.append(name)
                    continue
                if got_name != name or got_step != step:
                    raise MPHError(
                        f"ensemble protocol out of step: expected ({name}, {step}), "
                        f"got ({got_name}, {got_step})"
                    )
                fields[name] = field
            payload = (fields, list(self.degraded_instances))
        fields, dead = self._comm.bcast(payload, root=0)
        self.degraded_instances = list(dead)
        if not fields:
            raise MPHError(
                f"all {self.k} ensemble instances are gone "
                f"(degraded_instances={self.degraded_instances}); nothing to collect"
            )
        stats = EnsembleStats(step=step, fields=fields)
        if self._comm.rank == 0:
            self.time_moments.push(stats.mean)
        return stats

    def send_control(self, controls: dict[str, dict[str, Any]]) -> None:
        """Push per-instance control decisions (local processor 0 only).

        *controls* maps instance name to an arbitrary decision dict —
        the paper's "future simulation direction can be dynamically
        adjusted at real time".  Dead instances are skipped; an instance
        that dies under the send is added to :attr:`degraded_instances`
        (broadcast to the other statistics processes by the next
        :meth:`collect`).
        """
        if self._comm.rank != 0:
            return
        for name in self.live_instance_names:
            try:
                self.mph.send(controls.get(name, {}), name, 0, CONTROL_TAG)
            except ProcessFailedError:
                self.degraded_instances.append(name)

    def broadcast_same_control(self, control: dict[str, Any]) -> None:
        """Push one decision to every instance."""
        self.send_control({name: control for name in self.instance_names})
