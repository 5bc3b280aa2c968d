"""Extremality diagnostics for the tree-indexed chains attached to boundary
laws: spectral (branching times squared second eigenvalue), contraction
(branching times contraction coefficient times a percolation bound), and two
reconstruction-impossibility tests of the chain.

A chain lives on the k-ary tree for the invariant law and on the k**2-ary
even sublattice for the alternating pair, hence the k_eff convention. Every
value is a closed form in (lam, z); for a 2x2 stochastic chain the row
contraction kappa is the second eigenvalue's magnitude s2 by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    BoundaryLaw,
    DomainError,
    LawKind,
    ModelParams,
    recursion_map,
)
from .solvers import _thresholds, solve_two_periodic, solve_two_periodic_k3_closed

__all__ = [
    "ExtremalityReport",
    "Verdict",
    "classify",
    "g_function",
    "h_function",
    "report_for_law",
]


class Verdict(str, Enum):
    PROVEN_EXTREMAL = "ProvenExtremal"
    PROVEN_NONEXTREMAL = "ProvenNonExtremal"
    UNDETERMINED = "Undetermined"


def _chain_values(k: int, lam: float, values) -> tuple[int, float, float, float]:
    """(k_eff, s2, Martinelli value, Mossel value) of the chain that the
    invariant law (one value) or the ascending pair (two values) induces.

    With w = lam*z a free parent has an occupied child with probability
    a = w/(1+w), an empty one with abar = 1/(1+w); an occupied parent has an
    empty child. The invariant law's chain has s2 = a, and both
    reconstruction values reduce to k*s2. The pair's two-step chain, with b,
    bbar from z2, has s2 = a*b and p00 = a + abar*bbar; its values are
    k_eff*(sqrt(p00*p11) - sqrt(p01*p10))**2 and
    k_eff*(p00-p10)**2/min(p00+p10, p01+p11), with the determinant s2 factored
    out so that no difference is ever formed. Either value at most 1 means
    reconstruction is impossible on the k_eff-ary tree.
    """
    u = lam * values[0]
    a, a_bar = u / (1.0 + u), 1.0 / (1.0 + u)
    if len(values) == 1:
        return k, a, k * a, k * a
    v = lam * values[1]
    b, b_bar, k_eff = v / (1.0 + v), 1.0 / (1.0 + v), k * k
    s2, p00 = a * b, a + a_bar * b_bar
    mart = k_eff * s2 * s2 / (math.sqrt(p00 * b) + math.sqrt(a_bar * b * b_bar)) ** 2
    return k_eff, s2, mart, k_eff * s2 * s2 / min(p00 + b_bar, b * (1.0 + a_bar))


def _k3_pair_s2(lam: float) -> float:
    """s2 of the k=3 pair's two-step chain; DomainError below 27/16."""
    z1, z2 = solve_two_periodic_k3_closed(lam)
    return _chain_values(3, lam, (z1, z2) if z1 <= z2 else (z2, z1))[1]


def h_function(lam: float) -> float:
    """k=3 spectral diagnostic 9*kappa**2 - 1 along the closed-form pair.

    Negative for every activity above 27/16: the pair never trips the
    reconstruction bound. Strictly decreasing in the activity.
    """
    kap = _k3_pair_s2(lam)
    return 9.0 * kap * kap - 1.0


def g_function(lam: float) -> float:
    """k=3 contraction diagnostic 9*kappa*lam/(lam+1) - 1 along the pair.

    Negative above 27/16, so the pair is extremal there; strictly decreasing.
    """
    kap = _k3_pair_s2(lam)
    return 9.0 * kap * lam / (lam + 1.0) - 1.0


@dataclass(frozen=True)
class ExtremalityReport:
    """Diagnostics for one boundary law's chain.

    s2 is the magnitude of the chain's second eigenvalue and kappa its
    row-contraction coefficient, equal to s2 by identity; the four test
    values follow the k_eff convention above.
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


def _verdict(k: int, lam: float, pair: tuple | None = None) -> Verdict:
    """The invariant law's verdict (pair None) is exact: its msw is 1 at
    lambda_star and its ks 1 at the Kesten-Stigum bound, both rising with lam
    (its reconstruction values k*s2 reach 1 at lambda_cr < lambda_star), so
    lam is compared with those two thresholds. A two-periodic law is decided
    by its certificates pair = (ks, msw, mart_ok, mossel_ok). No solution
    proves both: s2 < gamma, so ks > 1 forces msw > 1, and both
    reconstruction values are at least ks."""
    if pair is None:
        cv, _, _, (star_side, bound_side) = _thresholds(k)
        extremal = (lam, 0) < (cv.lambda_star, star_side)
        nonextremal = (lam, 0) > (cv.lambda_nonextremal, bound_side)
    else:
        ks_value, msw_value, mart_ok, mossel_ok = pair
        extremal = msw_value < 1.0 or mart_ok or mossel_ok
        nonextremal = ks_value > 1.0
    if nonextremal:
        return Verdict.PROVEN_NONEXTREMAL
    if extremal:
        return Verdict.PROVEN_EXTREMAL
    return Verdict.UNDETERMINED


def _certificates(k: int, lam: float, values) -> tuple:
    """ExtremalityReport's fields after the law, in order, from (k, lam) and
    the values of a solved law; report_for_law and the sweep both read them
    here."""
    k_eff, s2, mart, mossel = _chain_values(k, lam, values)
    gam = lam / (lam + 1.0)
    ks, msw = k_eff * s2 * s2, k_eff * s2 * gam
    mart_ok, mossel_ok = mart <= 1.0, mossel <= 1.0
    return (k_eff, s2, s2, gam, ks, msw, mart, mart_ok, mossel, mossel_ok,
            _verdict(k, lam, None if len(values) == 1 else (ks, msw, mart_ok, mossel_ok)))


def report_for_law(params: ModelParams, law: BoundaryLaw) -> ExtremalityReport:
    """The full diagnostic record for an invariant or alternating law that
    solves the recursion; any other law gets DomainError."""
    if law.kind is LawKind.WEAK_PERIODIC:
        raise DomainError("weak-periodic laws have no single chain matrix here")
    # each value must be the recursion's image of the other (of itself for
    # the invariant law)
    if not all(math.isclose(z, recursion_map(params, w), rel_tol=1e-6)
               for z, w in zip(law.values, law.values[::-1])):
        raise DomainError(f"{law.kind.value} law {law.values} does not solve the recursion")
    return ExtremalityReport(law, *_certificates(params.k, params.lam, law.values))


def classify(params: ModelParams, tol: float = 1e-12) -> tuple[ExtremalityReport, ...]:
    """Solve at this activity and report a verdict per law found.

    The invariant law uses the single-step chain with k_eff = k; the
    alternating pair uses the two-step chain with k_eff = k**2. Reports are
    functions of the canonical law, so both orderings of a pair yield the
    same record.
    """
    solved = solve_two_periodic(params, tol)
    return tuple(report_for_law(params, law) for law in solved.solutions)
