"""Coupling algorithms on top of MPH (:mod:`repro.coupling`).

The MPH paper's coupler exchanges fixed fluxes once per step (explicit
coupling).  CCSM's implicit coupler (:mod:`repro.climate.ccsm`) instead
iterates each step's exchange to interface convergence, and this package
is what that step calls: Aitken relaxation (with Gauss-Seidel as its
analytic reference), the absolute residual-norm criterion, the quadratic
interface predictor, and the named-field layout of the iterate vector.
"""

from repro.coupling.criteria import AbsoluteNorm
from repro.coupling.interface import InterfaceSpec
from repro.coupling.predictors import Predictor
from repro.coupling.solvers import (
    AitkenSolver,
    CoupledSolver,
    GaussSeidelSolver,
    SolveResult,
)

__all__ = [
    "AbsoluteNorm",
    "InterfaceSpec",
    "Predictor",
    "CoupledSolver",
    "SolveResult",
    "GaussSeidelSolver",
    "AitkenSolver",
]
