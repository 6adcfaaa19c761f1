"""The coupling-component lifecycle contract.

Every building block of the coupling layer — coupled solvers, convergence
criteria, predictors — is a :class:`Component` with the same four
lifecycle hooks, so a coupling scheme is assembled from interchangeable
parts and a new solver or criterion drops in without touching the driver
or the transport (the CoCoNuT decomposition):

* :meth:`Component.initialize` / :meth:`Component.finalize` bracket the
  whole coupled calculation;
* :meth:`Component.initialize_solution_step` /
  :meth:`Component.finalize_solution_step` bracket one coupling step (one
  outer time step of the coupled system).

The base class enforces the ordering — a solver driven outside its
lifecycle is a bug in the driver, not a numerical mystery — and keeps the
current step index available to subclasses.
"""

from __future__ import annotations

from repro.errors import CouplingError


class Component:
    """Base class of every coupling component (solver, criterion,
    predictor).

    Subclasses override the hooks they need; all overrides must call
    ``super()`` so the lifecycle bookkeeping stays consistent.
    """

    def __init__(self) -> None:
        self._initialized = False
        self._in_step = False
        #: Index of the current (or last started) coupling step.
        self.step_index = -1

    # -- lifecycle --------------------------------------------------------------

    def initialize(self) -> None:
        """Start of the coupled calculation (called exactly once)."""
        if self._initialized:
            raise CouplingError(f"{type(self).__name__}.initialize called twice")
        self._initialized = True

    def initialize_solution_step(self) -> None:
        """Start of one coupling step."""
        self._require_initialized("initialize_solution_step")
        if self._in_step:
            raise CouplingError(
                f"{type(self).__name__}: coupling step {self.step_index} still open"
            )
        self._in_step = True
        self.step_index += 1

    def finalize_solution_step(self) -> None:
        """End of one coupling step."""
        self._require_initialized("finalize_solution_step")
        if not self._in_step:
            raise CouplingError(
                f"{type(self).__name__}.finalize_solution_step without an open step"
            )
        self._in_step = False

    def finalize(self) -> None:
        """End of the coupled calculation."""
        self._require_initialized("finalize")
        if self._in_step:
            raise CouplingError(
                f"{type(self).__name__}.finalize inside coupling step {self.step_index}"
            )
        self._initialized = False

    # -- helpers ----------------------------------------------------------------

    def _require_initialized(self, op: str) -> None:
        if not self._initialized:
            raise CouplingError(f"{type(self).__name__}.{op} before initialize")

    def _require_in_step(self, op: str) -> None:
        self._require_initialized(op)
        if not self._in_step:
            raise CouplingError(
                f"{type(self).__name__}.{op} outside a coupling step; call "
                "initialize_solution_step first"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} step={self.step_index}>"
