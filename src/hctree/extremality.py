"""Extremality diagnostics for the tree-indexed chains attached to boundary
laws: spectral (branching times squared second eigenvalue), contraction
(branching times contraction coefficient times a percolation bound), and two
reconstruction-impossibility tests applied to the chain's transition matrix.

A chain lives on the k-ary tree for the invariant law and on the k**2-ary
even sublattice for the alternating pair, hence the k_eff convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    BoundaryLaw,
    DomainError,
    InternalCheckError,
    LawKind,
    ModelParams,
    TransitionMatrix2,
    single_step_matrix,
    two_step_matrix,
)
from .solvers import solve_two_periodic, solve_two_periodic_k3_closed

__all__ = [
    "ExtremalityReport",
    "Verdict",
    "classify",
    "g_function",
    "gamma_bound",
    "h_function",
    "kappa_contraction",
    "kesten_stigum",
    "martinelli_check",
    "mossel_check",
    "msw_check",
    "report_for_law",
    "second_eigenvalue",
]


class Verdict(str, Enum):
    PROVEN_EXTREMAL = "ProvenExtremal"
    PROVEN_NONEXTREMAL = "ProvenNonExtremal"
    UNDETERMINED = "Undetermined"


def second_eigenvalue(params: ModelParams, z1: float, z2: float) -> float:
    """Second eigenvalue of the two-step matrix:
    lam^2 z1 z2 / (lam^2 z1 z2 + lam z1 + lam z2 + 1). Always in (0, 1)."""
    if z1 <= 0 or z2 <= 0:
        raise DomainError("z1, z2 must be positive")
    u = params.lam * z1
    v = params.lam * z2
    return u * v / (u * v + u + v + 1.0)


def kappa_contraction(matrix: TransitionMatrix2) -> float:
    """Worst-case one-step total-variation contraction: half the L1 distance
    between the two rows."""
    return 0.5 * (abs(matrix.p00 - matrix.p10) + abs(matrix.p01 - matrix.p11))


def gamma_bound(params: ModelParams) -> float:
    """Upper bound lam/(lam+1) for the percolation factor in the contraction test."""
    return params.lam / (params.lam + 1.0)


def _chain(params: ModelParams, z1: float, z2: float,
           two_periodic: bool) -> tuple[TransitionMatrix2, int, float]:
    """(matrix, k_eff, |second eigenvalue|) of the two-step chain through the
    pair (z1, z2), or of the invariant chain at z1 (z2 is ignored there)."""
    if two_periodic:
        return (two_step_matrix(params, z1, z2), params.k * params.k,
                second_eigenvalue(params, z1, z2))
    matrix = single_step_matrix(params, z1)
    return matrix, params.k, abs(matrix.second_eigenvalue())


def kesten_stigum(params: ModelParams, z1: float, z2: float, two_periodic: bool = True) -> float:
    """k_eff * s2**2; above 1 the measure is reconstructible, hence not extremal.

    two_periodic=False treats (z1, z1) as the invariant chain (z2 is ignored
    there) with k_eff = k; otherwise the two-step chain with k_eff = k**2.
    """
    _, k_eff, s2 = _chain(params, z1, z2, two_periodic)
    return k_eff * s2 * s2


def msw_check(params: ModelParams, z1: float, z2: float, two_periodic: bool = True) -> float:
    """k_eff * kappa * gamma_bound; below 1 the measure is extremal."""
    matrix, k_eff, _ = _chain(params, z1, z2, two_periodic)
    return k_eff * kappa_contraction(matrix) * gamma_bound(params)


def martinelli_check(matrix: TransitionMatrix2, k_eff: int) -> tuple[float, bool]:
    """Reconstruction test value k_eff*(sqrt(p00*p11) - sqrt(p01*p10))**2.

    At most 1 means reconstruction is impossible on the k_eff-ary tree, which
    proves extremality of the chain's invariant measure.
    """
    if k_eff < 1:
        raise DomainError(f"k_eff must be a positive integer, got {k_eff!r}")
    value = k_eff * (
        math.sqrt(matrix.p00 * matrix.p11) - math.sqrt(matrix.p01 * matrix.p10)
    ) ** 2
    return value, value <= 1.0


def mossel_check(matrix: TransitionMatrix2, k_eff: int) -> tuple[float, bool]:
    """Reconstruction test value k_eff*(p00-p10)**2/min(p00+p10, p01+p11).

    At most 1 means reconstruction is impossible. A zero numerator is treated
    as value 0 even when the minimum column mass vanishes.
    """
    if k_eff < 1:
        raise DomainError(f"k_eff must be a positive integer, got {k_eff!r}")
    num = (matrix.p00 - matrix.p10) ** 2
    if num == 0.0:
        return 0.0, True
    den = min(matrix.p00 + matrix.p10, matrix.p01 + matrix.p11)
    if den == 0.0:
        return math.inf, False
    value = k_eff * num / den
    return value, value <= 1.0


def _k3_pair_kappa(lam: float) -> float:
    """Second eigenvalue of the k=3 pair's two-step chain; DomainError below 27/16."""
    z1, z2 = solve_two_periodic_k3_closed(lam)
    return second_eigenvalue(ModelParams(3, lam), z1, z2)


def h_function(lam: float) -> float:
    """k=3 spectral diagnostic 9*kappa**2 - 1 along the closed-form pair.

    Negative for every activity above 27/16: the pair never trips the
    reconstruction bound. Strictly decreasing in the activity.
    """
    kap = _k3_pair_kappa(lam)
    return 9.0 * kap * kap - 1.0


def g_function(lam: float) -> float:
    """k=3 contraction diagnostic 9*kappa*lam/(lam+1) - 1 along the pair.

    Negative above 27/16, so the pair is extremal there; strictly decreasing.
    """
    kap = _k3_pair_kappa(lam)
    return 9.0 * kap * lam / (lam + 1.0) - 1.0


@dataclass(frozen=True)
class ExtremalityReport:
    """Diagnostics for one boundary law's chain.

    s2 is the magnitude of the chain matrix's second eigenvalue, kappa its
    row-contraction coefficient (these coincide for the matrices arising
    here), and the four test values follow the k_eff convention above.
    """

    law: BoundaryLaw
    k_eff: int
    s2: float
    kappa: float
    gamma: float
    ks_value: float
    msw_value: float
    martinelli_value: float
    martinelli_no_reconstruction: bool
    mossel_value: float
    mossel_no_reconstruction: bool
    verdict: Verdict


def _verdict(ks_value, msw_value, mart_ok, mossel_ok) -> Verdict:
    proven_nonextremal = ks_value > 1.0
    proven_extremal = (msw_value < 1.0) or mart_ok or mossel_ok
    if proven_extremal and proven_nonextremal:
        raise InternalCheckError(
            "extremality and non-extremality certificates fired together "
            f"(ks={ks_value}, msw={msw_value})"
        )
    if proven_nonextremal:
        return Verdict.PROVEN_NONEXTREMAL
    if proven_extremal:
        return Verdict.PROVEN_EXTREMAL
    return Verdict.UNDETERMINED


def report_for_law(params: ModelParams, law: BoundaryLaw) -> ExtremalityReport:
    """Build the full diagnostic record for an invariant or alternating law."""
    if law.kind is LawKind.WEAK_PERIODIC:
        raise DomainError("weak-periodic laws have no single chain matrix here")
    two_periodic = law.kind is LawKind.TWO_PERIODIC
    matrix, k_eff, s2 = _chain(params, law.values[0], law.values[-1], two_periodic)
    kap = kappa_contraction(matrix)
    gam = gamma_bound(params)
    ks_value = k_eff * s2 * s2
    msw_value = k_eff * kap * gam
    mart_value, mart_ok = martinelli_check(matrix, k_eff)
    mossel_value, mossel_ok = mossel_check(matrix, k_eff)
    return ExtremalityReport(
        law=law,
        k_eff=k_eff,
        s2=s2,
        kappa=kap,
        gamma=gam,
        ks_value=ks_value,
        msw_value=msw_value,
        martinelli_value=mart_value,
        martinelli_no_reconstruction=mart_ok,
        mossel_value=mossel_value,
        mossel_no_reconstruction=mossel_ok,
        verdict=_verdict(ks_value, msw_value, mart_ok, mossel_ok),
    )


def classify(params: ModelParams, tol: float = 1e-12) -> tuple[ExtremalityReport, ...]:
    """Solve at this activity and report a verdict per law found.

    The invariant law uses the single-step chain with k_eff = k; the
    alternating pair uses the two-step chain with k_eff = k**2. Reports are
    functions of the canonical law, so both orderings of a pair yield the
    same record.
    """
    solved = solve_two_periodic(params, tol)
    return tuple(report_for_law(params, law) for law in solved.solutions)
