"""Boundary-law primitives for the two-state hard-core model on a Cayley tree.

Admissible configurations are independent sets: an occupied vertex forbids
occupied neighbours. A splitting measure is described by one positive number
per vertex, the boundary-law value, normalised so the empty-spin component
is 1. Moving one level toward the root maps a constant value z to
(1 + lam*z)**(-k), with k the branching number and lam > 0 the activity.
This module holds the parameter/record types, that recursion, and the one-
and two-step transition matrices of the associated tree-indexed spin chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "BoundaryLaw",
    "ConvergenceError",
    "DomainError",
    "InternalCheckError",
    "LawKind",
    "ModelParams",
    "SizeCapError",
    "SolveReport",
    "TransitionMatrix2",
    "recursion_derivative",
    "recursion_map",
    "single_step_matrix",
    "translation_invariant_law",
    "two_periodic_law",
    "two_step_matrix",
    "weak_periodic_law",
]

_ROW_SUM_TOL = 1e-9


class DomainError(ValueError):
    """Argument outside an operation's mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach the requested tolerance.

    Diagnostics (bracket, iteration count, last residual) are attached as the
    ``diagnostics`` attribute so callers can report something actionable.
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class SizeCapError(ValueError):
    """Exact enumeration was asked to exceed its hard vertex cap."""


class InternalCheckError(RuntimeError):
    """Two redundant computations disagreed. A bug, not a bad input."""


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """value itself, if it is an int (not a bool) in [lo, hi]; hi=None is unbounded."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < lo
            or (hi is not None and value > hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Branching number k >= 2 and activity lam > 0."""

    k: int
    lam: float

    def __post_init__(self):
        _check_int("k", self.k, 2)
        _check_positive("lam", self.lam)


class LawKind(str, Enum):
    TRANSLATION_INVARIANT = "translation-invariant"
    TWO_PERIODIC = "two-periodic"
    WEAK_PERIODIC = "weak-periodic"


_WEAK_SETS = ("I1", "I2", "I3", "I4")


@dataclass(frozen=True)
class BoundaryLaw:
    """A positive boundary-law solution.

    values holds one number for a translation-invariant law, the ascending
    pair for a two-periodic law (the two orderings describe the same unordered
    object), and the full 4-tuple for a weakly periodic law, in which case
    invariant_set names the plane it lives on.
    """

    kind: LawKind
    values: tuple[float, ...]
    invariant_set: str | None = None

    def __post_init__(self):
        expected = {
            LawKind.TRANSLATION_INVARIANT: 1,
            LawKind.TWO_PERIODIC: 2,
            LawKind.WEAK_PERIODIC: 4,
        }[self.kind]
        if len(self.values) != expected:
            raise DomainError(
                f"{self.kind.value} law needs {expected} values, got {len(self.values)}"
            )
        for v in self.values:
            _check_positive("boundary-law value", v)
        if self.kind is LawKind.TWO_PERIODIC and self.values[0] > self.values[1]:
            raise DomainError("two-periodic values must be in ascending (canonical) order")
        if self.kind is LawKind.WEAK_PERIODIC:
            if self.invariant_set not in _WEAK_SETS:
                raise DomainError(f"invariant_set must be one of {_WEAK_SETS}")
        elif self.invariant_set is not None:
            raise DomainError("invariant_set only applies to weak-periodic laws")


def translation_invariant_law(z: float) -> BoundaryLaw:
    return BoundaryLaw(LawKind.TRANSLATION_INVARIANT, (float(z),))


def two_periodic_law(z1: float, z2: float) -> BoundaryLaw:
    """Canonicalises the unordered pair: stored ascending."""
    lo, hi = sorted((float(z1), float(z2)))
    return BoundaryLaw(LawKind.TWO_PERIODIC, (lo, hi))


def weak_periodic_law(values, invariant_set: str) -> BoundaryLaw:
    return BoundaryLaw(LawKind.WEAK_PERIODIC, tuple(float(v) for v in values), invariant_set)


@dataclass(frozen=True)
class TransitionMatrix2:
    """Row-stochastic 2x2 matrix of a two-state chain, rows indexed by spin."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for name in ("p00", "p01", "p10", "p11"):
            p = getattr(self, name)
            if not math.isfinite(p) or p < -1e-12 or p > 1.0 + 1e-12:
                raise DomainError(f"{name}={p!r} is not a probability")
        if abs(self.p00 + self.p01 - 1.0) > _ROW_SUM_TOL or abs(self.p10 + self.p11 - 1.0) > _ROW_SUM_TOL:
            raise DomainError("rows must sum to 1")

    def row(self, i: int) -> tuple[float, float]:
        if i == 0:
            return (self.p00, self.p01)
        if i == 1:
            return (self.p10, self.p11)
        raise DomainError(f"row index must be 0 or 1, got {i!r}")

    def determinant(self) -> float:
        return self.p00 * self.p11 - self.p01 * self.p10

    def second_eigenvalue(self) -> float:
        # the other eigenvalue of a row-stochastic 2x2 is trace - 1
        return self.p00 + self.p11 - 1.0

    def compose(self, other: "TransitionMatrix2") -> "TransitionMatrix2":
        return TransitionMatrix2(
            self.p00 * other.p00 + self.p01 * other.p10,
            self.p00 * other.p01 + self.p01 * other.p11,
            self.p10 * other.p00 + self.p11 * other.p10,
            self.p10 * other.p01 + self.p11 * other.p11,
        )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the homogeneous/alternating boundary-law solve.

    solutions lists each distinct law once (the two-periodic pair is stored
    canonically); system_solution_count is the number of ordered solutions of
    the underlying two-equation system, 1 below the critical activity and 3
    above it. degenerate_double_root marks the activity sitting on the
    bifurcation itself, where the pair collapses onto the fixed point.
    """

    params: ModelParams
    lambda_critical: float
    solutions: tuple[BoundaryLaw, ...]
    residuals: tuple[float, ...]
    system_solution_count: int
    degenerate_double_root: bool = False

    def __post_init__(self):
        if len(self.solutions) != len(self.residuals):
            raise DomainError("one residual per solution required")


def recursion_map(params: ModelParams, z: float) -> float:
    """One rootward step of the boundary-law recursion: (1 + lam*z)**(-k).

    Strictly decreasing in z; maps (0, inf) into (0, 1).
    """
    z = _check_positive("z", z)
    return (1.0 + params.lam * z) ** (-params.k)


def recursion_derivative(params: ModelParams, z: float) -> float:
    """d/dz of recursion_map: -k*lam*(1 + lam*z)**(-(k+1)). Always negative."""
    z = _check_positive("z", z)
    return -params.k * params.lam * (1.0 + params.lam * z) ** (-(params.k + 1))


def single_step_matrix(params: ModelParams, z: float) -> TransitionMatrix2:
    """Parent-to-child spin transitions when the child's subtree carries value z.

    Row 0 (empty parent): child occupied with odds lam*z. Row 1 (occupied
    parent): the child must be empty, so the row is (1, 0).
    """
    z = _check_positive("z", z)
    w = params.lam * z
    return TransitionMatrix2(1.0 / (1.0 + w), w / (1.0 + w), 1.0, 0.0)


def two_step_matrix(params: ModelParams, z1: float, z2: float) -> TransitionMatrix2:
    """Grandparent-to-grandchild transitions through an alternating pair.

    Equals single_step_matrix(z1) composed with single_step_matrix(z2); the
    entries are written out so the matrix is one rounding step away from the
    inputs rather than a product of two rounded matrices.
    """
    z1 = _check_positive("z1", z1)
    z2 = _check_positive("z2", z2)
    u = params.lam * z1
    v = params.lam * z2
    d = (1.0 + u) * (1.0 + v)
    return TransitionMatrix2(
        (1.0 + u + u * v) / d,
        v / d,
        1.0 / (1.0 + v),
        v / (1.0 + v),
    )
