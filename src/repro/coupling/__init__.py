"""Coupling algorithms on top of MPH (:mod:`repro.coupling`).

The MPH paper's coupler exchanges fixed fluxes once per step (explicit
coupling); this package supplies what tightly coupled multi-physics needs
on the same infrastructure: implicit coupled solvers (Gauss-Seidel, Aitken,
IQN-ILS), composable convergence criteria, interface predictors and
named-field interface layouts — each a
:class:`~repro.coupling.component.Component` with the same lifecycle.
CCSM's implicit coupler (:mod:`repro.climate.ccsm`) builds its
iterate-to-convergence step from them.
"""

from repro.coupling.component import Component
from repro.coupling.criteria import (
    AbsoluteNorm,
    And,
    ConvergenceCriterion,
    IterationBound,
    Or,
    RelativeNorm,
)
from repro.coupling.interface import InterfaceSpec
from repro.coupling.predictors import (
    ConstantPredictor,
    LinearPredictor,
    Predictor,
    QuadraticPredictor,
)
from repro.coupling.solvers import (
    AitkenSolver,
    CoupledSolver,
    GaussSeidelSolver,
    IQNILSSolver,
    SolveResult,
)

__all__ = [
    "Component",
    "ConvergenceCriterion",
    "AbsoluteNorm",
    "RelativeNorm",
    "IterationBound",
    "And",
    "Or",
    "InterfaceSpec",
    "Predictor",
    "ConstantPredictor",
    "LinearPredictor",
    "QuadraticPredictor",
    "CoupledSolver",
    "SolveResult",
    "GaussSeidelSolver",
    "AitkenSolver",
    "IQNILSSolver",
]
