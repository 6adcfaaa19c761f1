"""Reduction operators for the simulated MPI collectives.

Each operator is a small value object wrapping an associative binary
function.  The predefined set mirrors MPI's: SUM, PROD, MAX, MIN, the
logical and bitwise families, and the location-carrying MAXLOC / MINLOC.

Operators work on any Python values supporting the underlying operation —
numbers, numpy arrays (elementwise), and for MAXLOC/MINLOC, ``(value, loc)``
pairs.  User-defined operators are created with :func:`Op.create`.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

import numpy as np


class Op:
    """An associative (and possibly commutative) reduction operator.

    Parameters
    ----------
    fn :
        Binary function combining two contributions.  Contributions are
        always combined in rank order (``((r0 op r1) op r2) ...``) so that
        non-commutative user operators behave deterministically, as MPI
        guarantees.
    name :
        Display name used in diagnostics.
    commutative :
        Declared commutativity.  A reduction may fold node by node (and
        not in plain rank order) only when this is true.
    """

    __slots__ = ("fn", "name", "commutative")

    def __init__(self, fn: Callable[[Any, Any], Any], name: str, commutative: bool = True):
        self.fn = fn
        self.name = name
        self.commutative = commutative

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Op {self.name}>"

    def reduce(self, contributions: Sequence[Any]) -> Any:
        """Fold *contributions* (given in rank order) with this operator."""
        if not contributions:
            raise ValueError("cannot reduce zero contributions")
        acc = contributions[0]
        for item in contributions[1:]:
            acc = self.fn(acc, item)
        return acc

    @staticmethod
    def create(fn: Callable[[Any, Any], Any], name: str = "user", commutative: bool = False) -> "Op":
        """Create a user-defined operator (``MPI_Op_create`` analogue)."""
        return Op(fn, name, commutative)


def _elementwise_max(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _elementwise_min(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _maxloc(a: tuple, b: tuple) -> tuple:
    """MAXLOC on ``(value, loc)`` pairs: larger value wins, ties take the
    smaller location — exactly MPI's tie-breaking rule."""
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return a if a[1] <= b[1] else b


def _minloc(a: tuple, b: tuple) -> tuple:
    """MINLOC on ``(value, loc)`` pairs (smaller value wins, ties take the
    smaller location)."""
    if a[0] < b[0]:
        return a
    if b[0] < a[0]:
        return b
    return a if a[1] <= b[1] else b


SUM = Op(operator.add, "SUM")
PROD = Op(operator.mul, "PROD")
MAX = Op(_elementwise_max, "MAX")
MIN = Op(_elementwise_min, "MIN")
LAND = Op(lambda a, b: np.logical_and(a, b) if isinstance(a, np.ndarray) else bool(a) and bool(b), "LAND")
LOR = Op(lambda a, b: np.logical_or(a, b) if isinstance(a, np.ndarray) else bool(a) or bool(b), "LOR")
LXOR = Op(lambda a, b: np.logical_xor(a, b) if isinstance(a, np.ndarray) else bool(a) != bool(b), "LXOR")
BAND = Op(operator.and_, "BAND")
BOR = Op(operator.or_, "BOR")
BXOR = Op(operator.xor, "BXOR")
MAXLOC = Op(_maxloc, "MAXLOC")
MINLOC = Op(_minloc, "MINLOC")

#: All predefined operators, keyed by name.
PREDEFINED = {
    op.name: op
    for op in (SUM, PROD, MAX, MIN, LAND, LOR, LXOR, BAND, BOR, BXOR, MAXLOC, MINLOC)
}
