"""Solvers for homogeneous and alternating boundary laws, plus the activity
thresholds that organise the phase picture (uniqueness, extremality window,
provable non-extremality)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ConvergenceError,
    DomainError,
    ModelParams,
    SolveReport,
    _check_int,
    _check_positive,
    recursion_map,
    translation_invariant_law,
    two_periodic_law,
)

__all__ = [
    "CriticalValues",
    "asymptotic_bound",
    "critical_lambda",
    "critical_values",
    "discriminant_k3",
    "k3_cubic_root",
    "lambda_star",
    "nonextremal_bound",
    "solve_translation_invariant",
    "solve_two_periodic",
    "solve_two_periodic_k2_closed",
    "solve_two_periodic_k3_closed",
]

_BISECT_MAX_ITER = 200
_DEFAULT_TOL = 1e-12
_PAIR_BRACKET_MARGIN = 1e-9  # keep the two-cycle bracket clear of the fixed point

_K3_CRITICAL = 27.0 / 16.0


def critical_lambda(k: int) -> float:
    """Activity above which the alternating pair appears: (k/(k-1))**k / (k-1)."""
    _check_int("k", k, 2)
    return (k / (k - 1.0)) ** k / (k - 1.0)


def solve_translation_invariant(params: ModelParams, tol: float = _DEFAULT_TOL) -> float:
    """The unique fixed point of the recursion in (0, 1), found by bisection.

    The map is strictly decreasing with f(0+)=1 and f(1) < 1, so
    f(z) - z changes sign exactly once on (0, 1).
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    lam, k = params.lam, params.k
    lo, hi = 0.0, 1.0  # sign(f - id) is + at lo, - at hi; endpoints never evaluated
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # recursion_map inlined: mid is a float strictly inside (0, 1), so its
        # argument check could never fire
        g = (1.0 + lam * mid) ** (-k) - mid
        if g == 0.0:
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    residual = abs(recursion_map(params, z) - z)
    if residual > tol:
        raise ConvergenceError(
            "translation-invariant bisection stalled",
            bracket=(lo, hi),
            residual=residual,
            tol=tol,
        )
    return z


def solve_two_periodic_k2_closed(lam: float) -> tuple[float, float]:
    """Closed-form alternating pair for k=2, valid for lam >= 4.

    With x = sqrt(z) the system collapses to lam*x**2 - lam*x + 1 = 0; the
    smaller root is computed in conjugate form 2/(lam + sqrt(lam*(lam-4)))
    to dodge cancellation at large lam. Returns (z1, z2) ascending; at
    lam = 4 both entries equal the fixed point 1/4.
    """
    lam = float(lam)
    if lam < 4.0:
        raise DomainError(f"k=2 pair requires lam >= 4, got {lam!r}")
    s = math.sqrt(lam * (lam - 4.0))
    x_hi = (lam + s) / (2.0 * lam)
    x_lo = 2.0 / (lam + s)
    return (x_lo * x_lo, x_hi * x_hi)


def _cbrt(x: float) -> float:
    # real cube root, sign preserved
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def k3_cubic_root(lam: float) -> float:
    """The real root a > 1 of a**3 - a**2 = 1/lam, by the explicit radical form."""
    lam = _check_positive("lam", lam)
    core = 12.0 * math.sqrt(12.0 * lam + 81.0) + 8.0 * lam + 108.0
    return _cbrt(core / lam) / 6.0 + (2.0 / 3.0) * _cbrt(lam / core) + 1.0 / 3.0


def discriminant_k3(lam: float) -> float:
    """a**4*lam**2 - 4*a*lam with a = k3_cubic_root(lam).

    Negative below 27/16, zero there, positive above; its sign decides whether
    the k=3 alternating pair is real.
    """
    a = k3_cubic_root(lam)
    return a ** 4 * lam * lam - 4.0 * a * lam


def solve_two_periodic_k3_closed(lam: float) -> tuple[float, float]:
    """Closed-form alternating pair for k=3, valid for lam >= 27/16.

    z_i = t_i**3 where t_1, t_2 are the roots of lam*a*t**2 - lam*a**2*t + 1
    with a the cubic root above; the small root again uses the conjugate form.
    """
    lam = float(lam)
    if lam < _K3_CRITICAL:
        raise DomainError(f"k=3 pair requires lam >= 27/16, got {lam!r}")
    a = k3_cubic_root(lam)
    disc = a ** 4 * lam * lam - 4.0 * a * lam
    if disc < 0.0:
        disc = 0.0  # only reachable by rounding right at the critical activity
    s = math.sqrt(disc)
    t_hi = (lam * a * a + s) / (2.0 * lam * a)
    t_lo = 2.0 / (lam * a * a + s)
    return (t_lo ** 3, t_hi ** 3)


def _pair_residual(params: ModelParams, z1: float, z2: float) -> float:
    return max(
        abs(z1 - recursion_map(params, z2)),
        abs(z2 - recursion_map(params, z1)),
    )


def _solve_pair_generic(params: ModelParams, z_fix: float, tol: float) -> tuple[float, float]:
    """Two-cycle of the recursion via bisection of f(f(z)) - z left of the fixed point."""
    lo = 0.0
    hi = z_fix - _PAIR_BRACKET_MARGIN
    if hi <= 0.0:
        raise ConvergenceError("fixed point too close to zero to bracket a pair", z_fix=z_fix)

    lam, k = params.lam, params.k

    def h(z: float) -> float:
        # recursion_map inlined: z is a positive float; the inner value is
        # checked, so one that underflows to 0 still raises recursion_map's
        # DomainError
        w = (1.0 + lam * z) ** (-k)
        if not w > 0.0:
            return recursion_map(params, w) - z
        return (1.0 + lam * w) ** (-k) - z

    h_hi = h(hi)
    if h_hi >= 0.0:
        raise ConvergenceError(
            "no sign change for the two-cycle bracket; pair not found",
            bracket=(lo, hi),
            h_hi=h_hi,
            lam=params.lam,
        )
    # h > 0 near zero (f(f(0+)) is bounded away from 0), h < 0 at hi
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    z1 = 0.5 * (lo + hi)
    z2 = recursion_map(params, z1)
    if _pair_residual(params, z1, z2) > tol:
        raise ConvergenceError(
            "two-cycle bisection stalled",
            pair=(z1, z2),
            residual=_pair_residual(params, z1, z2),
            tol=tol,
        )
    return z1, z2


def solve_two_periodic(params: ModelParams, tol: float = _DEFAULT_TOL) -> SolveReport:
    """All solutions of the alternating two-equation system at this activity.

    Below the critical activity only the fixed point exists; above it the
    report carries the fixed point plus the canonical pair, and the ordered
    solution count is 3. k=2 and k=3 use their closed forms, other k a
    bisection of f(f(z)) - z on (0, z_fix).
    """
    lam_cr = critical_lambda(params.k)
    z_fix = solve_translation_invariant(params, tol)
    ti = translation_invariant_law(z_fix)
    ti_res = abs(recursion_map(params, z_fix) - z_fix)
    degenerate = abs(params.lam - lam_cr) <= 1e-12 * max(1.0, lam_cr)

    if degenerate or params.lam < lam_cr:
        return SolveReport(
            params=params,
            lambda_critical=lam_cr,
            solutions=(ti,),
            residuals=(ti_res,),
            system_solution_count=1,
            degenerate_double_root=degenerate,
        )

    if params.k == 2:
        z1, z2 = solve_two_periodic_k2_closed(params.lam)
    elif params.k == 3:
        z1, z2 = solve_two_periodic_k3_closed(params.lam)
    else:
        z1, z2 = _solve_pair_generic(params, z_fix, tol)
    pair_res = _pair_residual(params, z1, z2)
    if pair_res > max(tol, 1e-9):
        raise ConvergenceError(
            "alternating pair residual above tolerance",
            pair=(z1, z2),
            residual=pair_res,
        )
    return SolveReport(
        params=params,
        lambda_critical=lam_cr,
        solutions=(ti, two_periodic_law(z1, z2)),
        residuals=(ti_res, pair_res),
        system_solution_count=3,
        degenerate_double_root=False,
    )


def _t_root(k: int) -> float:
    """Root in (0,1) of t**(k+1) - k*t**2 + (2k-1)*t - (k-1); negative at 0, +1 at 1."""

    def poly(t: float) -> float:
        return t ** (k + 1) - k * t * t + (2.0 * k - 1.0) * t - (k - 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        p = poly(mid)
        if p == 0.0:
            return mid
        if p < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_star(k: int) -> float:
    """Threshold below which the translation-invariant measure is provably
    extremal: (1/t**k)*(1/t - 1) at the polynomial root t above."""
    _check_int("k", k, 2)
    t = _t_root(k)
    return (1.0 - t) / t ** (k + 1)


def nonextremal_bound(k: int) -> float:
    """Threshold above which the translation-invariant measure is provably
    not extremal: (sqrt(k)/(sqrt(k)-1))**k / (sqrt(k)-1)."""
    _check_int("k", k, 2)
    r = math.sqrt(k)
    return (r / (r - 1.0)) ** k / (r - 1.0)


def asymptotic_bound(k: int, eps: float) -> float:
    """Large-k form of the non-extremality threshold:
    e**(1+eps) * ln k * (ln k + ln ln k + 1 + eps). Needs k >= 3, eps > 0."""
    _check_int("k", k, 3)
    eps = _check_positive("eps", eps)
    lk = math.log(k)
    return math.exp(1.0 + eps) * lk * (lk + math.log(lk) + 1.0 + eps)


@dataclass(frozen=True)
class CriticalValues:
    """The activity thresholds for one branching number.

    lambda_cr: the pair appears above this.
    t_star / lambda_star: extremality of the invariant measure is proven
    below lambda_star (t_star is the polynomial root behind it).
    lambda_nonextremal: non-extremality is proven above this.
    The open interval (lambda_star, lambda_nonextremal) is the undetermined
    window for the invariant measure.
    """

    k: int
    lambda_cr: float
    t_star: float
    lambda_star: float
    lambda_nonextremal: float


def critical_values(k: int) -> CriticalValues:
    _check_int("k", k, 2)
    t = _t_root(k)
    return CriticalValues(
        k=k,
        lambda_cr=critical_lambda(k),
        t_star=t,
        lambda_star=(1.0 - t) / t ** (k + 1),
        lambda_nonextremal=nonextremal_bound(k),
    )
