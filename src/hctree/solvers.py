"""Solvers for homogeneous and alternating boundary laws, plus the activity
thresholds that organise the phase picture (uniqueness, extremality window,
provable non-extremality)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    ConvergenceError,
    DomainError,
    InternalCheckError,
    ModelParams,
    SolveReport,
    _check_int,
    _check_positive,
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
    "lambda_pm",
    "lambda_star",
    "nonextremal_bound",
    "s_pm",
    "solve_translation_invariant",
    "solve_two_periodic",
    "solve_two_periodic_k2_closed",
    "solve_two_periodic_k3_closed",
]

# halving any bracket in [0, 1] reaches adjacent floats within 1,075 steps, even at 2**-1074;
# at most three probes in a row keep more than half of it, then a midpoint probe halves it
_MAX_PROBES = 4 * 1075 + 3
# while rho <= 1/2 the pair's Newton leaves y within step**2/2 of log z1 (|Phi''| <= rho,
# Phi' >= 1/2), so a step below 2**-26 ends it; the most steps seen was 5 (TestPairNewton)
_NEWTON_STEPS, _NEWTON_STOP = 16, 2.0 ** -26
_EPS, _LOG2 = math.ulp(1.0), math.log(2.0)
_DEFAULT_TOL = 1e-12

_K3_CRITICAL = 27.0 / 16.0


def critical_lambda(k: int) -> float:
    """Activity above which the alternating pair appears: (k/(k-1))**k / (k-1)."""
    return _thresholds(_check_int("k", k, 2))[0].lambda_cr


def solve_translation_invariant(params: ModelParams, tol: float = _DEFAULT_TOL) -> float:
    """The unique fixed point of the recursion in (0, 1), by Newton and Illinois probes.

    The map is strictly decreasing with f(0+)=1 and f(1) < 1, so f(z) - z changes sign
    once on (0, 1): the probes end on the floats bisection ends on, from any bracket.
    """
    return _fixed_point(params.k, params.lam, tol)[0]


def _fixed_point(k: int, lam: float, tol: float) -> tuple[float, float]:
    """solve_translation_invariant on floats, and the residual |f(z) - z| its gate checks."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    # Newton on psi(w) = w + k*log1p(lam*e**w) = log(z/f(z)), w = log z, comes down on the root
    # (psi is increasing and convex) from 0 or the root of psi's tangent at lam*z = 1, right of
    # it; a step below 2**-26 leaves w within step**2 of log z, as psi''/psi' < 1
    w = min(0.0, -k * (_LOG2 + 0.5 * math.log(lam)) / (1.0 + 0.5 * k))
    for _ in range(_NEWTON_STEPS):
        t = lam * math.exp(w)
        step = (w + k * math.log1p(t)) / (1.0 + k * t / (1.0 + t))
        w -= step
        if step <= _NEWTON_STOP:
            break
    # g = f - id is non-increasing on floats (lam*z, 1 + ., pow and -z round monotonically): from
    # any bracket the probes end on the adjacent floats where it changes sign. The bracket is z
    # and z -+ d on g's side (d past exp's eps*|w| and the pow form's k*eps/2) where g's signs
    # hold, else (0, 1)
    z = math.exp(w)
    g = (1.0 + lam * z) ** (-k) - z
    if g == 0.0:
        return z, 0.0
    d = (k + 8 - w) * _EPS * z
    e = z + d if g > 0.0 else z - d
    ge = (1.0 + lam * e) ** (-k) - e if 0.0 < e < 1.0 else g
    lo, hi, glo, ghi = (z, e, g, ge) if g > 0.0 else (e, z, ge, g)
    if not (0.0 < lo and hi < 1.0 and glo > 0.0 > ghi):
        lo, hi, glo, ghi = 0.0, 1.0, 1.0, (1.0 + lam) ** (-k) - 1.0
    # g is + at lo, - at hi, and known at both. An end kept twice has its stored g
    # halved (moved: +1 where lo moved last, -1 where hi did); slow counts the
    # probes in a row that kept more than half of the bracket
    moved = slow = 0
    for _ in range(_MAX_PROBES):
        m = 0.5 * (lo + hi)
        if m == lo or m == hi:
            break
        c = hi - ghi * (hi - lo) / (ghi - glo)
        mid = c if slow < 3 and lo < c < hi else m
        # recursion_map inlined: mid is a float strictly inside (0, 1), so its
        # argument check could never fire
        g = (1.0 + lam * mid) ** (-k) - mid
        if g == 0.0:
            return mid, 0.0
        if g > 0.0:
            if moved > 0:
                ghi *= 0.5
            lo, glo, moved = mid, g, 1
            slow = slow + 1 if mid < m else 0
        else:
            if moved < 0:
                glo *= 0.5
            hi, ghi, moved = mid, g, -1
            slow = slow + 1 if mid > m else 0
    z = 0.5 * (lo + hi)
    _check_found(z, lam, "fixed point below the smallest positive float", bracket=(lo, hi))
    residual = abs((1.0 + lam * z) ** (-k) - z)
    if residual > tol:
        raise ConvergenceError(
            "translation-invariant bisection stalled",
            bracket=(lo, hi),
            residual=residual,
            tol=tol,
        )
    return z, residual


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
    # lam*(lam-4) overflows from about 1.3e154, where sqrt(1 - 4/lam) rounds to 1
    s = min(math.sqrt(lam * (lam - 4.0)), lam)
    x_lo = 2.0 / (lam + s)
    _check_found(x_lo * x_lo, lam)
    x_hi = (lam + s) / (2.0 * lam)
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

    z1 = t**3 for the smaller root t of lam*a*t**2 - lam*a**2*t + 1, with a
    the cubic root above, in conjugate form again; z2 = (1 + lam*z1)**-3.
    """
    lam = float(lam)
    if lam < _K3_CRITICAL:
        raise DomainError(f"k=3 pair requires lam >= 27/16, got {lam!r}")
    a = k3_cubic_root(lam)
    # the discriminant is below 0 only by rounding right at the critical activity
    s = math.sqrt(max(a ** 4 * lam * lam - 4.0 * a * lam, 0.0))
    z1 = (2.0 / (lam * a * a + s)) ** 3
    _check_found(z1, lam)
    # the other root t_hi**3 can round above 1; z2 = f(z1) cannot
    return (z1, (1.0 + lam * z1) ** -3)


def _check_found(z: float, lam: float,
                 message: str = "two-cycle below the smallest positive float; pair not found",
                 **diagnostics) -> None:
    """Refuse a value that underflowed to 0 (or is NaN where a closed form's terms overflow):
    the pair's small value, or the fixed point's under its own message."""
    if not z > 0.0:
        raise ConvergenceError(message, lam=lam, **diagnostics)


def _solve_pair_generic(k: int, lam: float, tol: float, z_fix=None) -> tuple[float, float]:
    """Two-cycle (z1, z2), z1 < z_fix < z2, of f(z) = (1 + lam*z)**-k.

    Newton on Phi(y) = y + k*log1p(lam*f(e**y)) = log(z/f(f(z))) in y = log z1, from
    log f(1) <= log z1, with f in the log form exp(-k*log1p(lam*z)), z2 = f(z1) too: 1 + lam*z1
    drops the bits of lam*z1 below eps, and z1 = f(z2) scales them by k. Phi' = 1 - rho,
    rho = k**2*a*b with a = lam*z/(1 + lam*z), b = lam*f(z)/(1 + lam*f(z)): at z1, k_eff*s2 of
    the pair's chain. An iterate with rho > 1/2, the step cap or an underflow of z1 hands over to
    the fixed point's Illinois probes on G(u) = lam*u*v*sum(u**j * v**(k-1-j), j < k) - 1,
    v = 1/(1 + lam*u**k): 1/u = 1 + lam*v**k minus 1/v = 1 + lam*u**k over v - u, in
    u = z1**(1/k), v = z2**(1/k). Next to lam_cr Phi has three close roots (z1, z_fix, z2) and
    loses eps/(lam/lam_cr - 1); G keeps k*eps/sqrt(lam/lam_cr - 1). G(0+) = -1 and G(u_fix) =
    |f'(z_fix)| - 1 > 0 above lam_cr: (0, u_fix) brackets the pair with no margin, and only
    there is z_fix solved, at tol, where the caller has not. The sum is v**(k-1)*(1 - r**k)/d,
    r = u/v = 1 - d: -expm1(k*log1p(-d)) where v**k - u**k cancels, and v**k - u**k for d >= 0.5.
    """
    log1p, expm1, exp = math.log1p, math.expm1, math.exp
    y = -k * log1p(lam)
    for _ in range(_NEWTON_STEPS):
        t = lam * exp(y)
        s = lam * exp(-k * log1p(t))
        rho = k * k * t / (1.0 + t) * s / (1.0 + s)
        if not (t > 0.0 and rho <= 0.5):
            break
        step = (y + k * log1p(s)) / (1.0 - rho)
        y -= step
        if abs(step) <= _NEWTON_STOP:
            # the pass of f(f(.)) shrinks y's error by rho; an underflow hands over
            z1 = (1.0 + lam * exp(-k * log1p(lam * exp(y)))) ** (-k)
            if z1 > 0.0:
                return z1, exp(-k * log1p(lam * z1))
            break
    # G inlined as p = G + 1: below 1 at lo, above at hi; the ends' G is known
    z_fix = _fixed_point(k, lam, tol)[0] if z_fix is None else z_fix
    lo, hi = 0.0, z_fix ** (1.0 / k)
    glo, ghi, moved, slow = -1.0, k * (lam * z_fix / (1.0 + lam * z_fix)) - 1.0, 0, 0
    for _ in range(_MAX_PROBES):
        m = 0.5 * (lo + hi)
        if m == lo or m == hi:
            break
        c = hi - ghi * (hi - lo) / (ghi - glo)
        mid = c if slow < 3 and lo < c < hi else m
        a = mid ** k
        v = 1.0 / (1.0 + lam * a)
        d = (v - mid) / v
        w = v ** k
        if d >= 0.5:
            p = lam * mid * (w - a) / d
        else:
            # d is 0 only where v rounds to mid, next to u_fix: q's limit is k
            p = lam * mid * w * (-expm1(k * log1p(-d)) / d if d else k)
        if p > 1.0:
            if moved < 0:
                glo *= 0.5
            hi, ghi, moved = mid, p - 1.0, -1
            slow = slow + 1 if mid > m else 0
        else:
            if moved > 0:
                ghi *= 0.5
            lo, glo, moved = mid, p - 1.0, 1
            slow = slow + 1 if mid < m else 0
    z1 = (0.5 * (lo + hi)) ** k
    if z1 > 0.0:
        # one pass of the map applied twice, in the pow form, takes back the ulps of u**k; in the
        # log form about 6 times as many probed pairs at k >= 10**4 fail the residual gate
        z1 = (1.0 + lam * (1.0 + lam * z1) ** (-k)) ** (-k)
    # z1 is 0 where u**k (or the pass) underflows: the pair is below every float
    _check_found(z1, lam, bracket=(lo, hi))
    return z1, (1.0 + lam * z1) ** (-k)


def _solve_pair(k: int, lam: float, tol: float, z_fix=None) -> tuple[float, float, float]:
    """The alternating pair (z1, z2), ascending, and its residual, gated at tol: the closed form
    for k=2 and 3, else _solve_pair_generic, from z_fix if given. Only where _has_pair holds."""
    if k >= 4:
        z1, z2 = _solve_pair_generic(k, lam, tol, z_fix)
    else:
        z1, z2 = (solve_two_periodic_k2_closed if k == 2 else solve_two_periodic_k3_closed)(lam)
    # recursion_map inlined on positive floats; z2 = f(z1) in the Newton pair's log form, or else
    # in the pow form, which the rounding of 1 + lam*z1 moves by k*eps/2
    r1, r2 = abs(z1 - (1.0 + lam * z2) ** (-k)), abs(z2 - math.exp(-k * math.log1p(lam * z1)))
    residual = max(r1, min(r2, abs(z2 - (1.0 + lam * z1) ** (-k))) if r2 else 0.0)
    if residual > tol:
        raise ConvergenceError("alternating pair residual above tolerance",
                               pair=(z1, z2), residual=residual, tol=tol)
    return (z1, z2, residual) if z1 <= z2 else (z2, z1, residual)


def _degenerate(lam: float, lam_cr: float) -> bool:
    """Within 1e-12*max(1, lam_cr) of the critical activity, where the pair collapses: relative
    for lam_cr >= 1, absolute for lam_cr < 1 (k >= 5). ROADMAP item 3 plans an exact test."""
    return abs(lam - lam_cr) <= 1e-12 * max(1.0, lam_cr)


def _has_pair(lam: float, lam_cr: float) -> bool:
    """Whether the pair exists: above the critical activity, off its degenerate window."""
    return lam > lam_cr and not _degenerate(lam, lam_cr)


def _solve(k: int, lam: float, tol: float):
    """The laws at one activity on floats: (z_fix, its residual, pair), the pair (z1, z2, its
    residual) from _solve_pair where _has_pair holds, else None. solve, classify and weak on
    I2 read this; only solve_two_periodic builds records from it."""
    z_fix, residual = _fixed_point(k, lam, tol)
    pair = _has_pair(lam, _thresholds(k)[0].lambda_cr)
    return z_fix, residual, (_solve_pair(k, lam, tol, z_fix) if pair else None)


def _last_law(k: int, lam: float, tol: float) -> tuple:
    """The values of the last law _solve finds: the pair (z1, z2) where _has_pair holds, else
    (z_fix,), with the fixed point solved only where it is that law or brackets the pair."""
    if _has_pair(lam, _thresholds(k)[0].lambda_cr):
        return _solve_pair(k, lam, tol)[:2]
    return _fixed_point(k, lam, tol)[:1]


def solve_two_periodic(params: ModelParams, tol: float = _DEFAULT_TOL) -> SolveReport:
    """All solutions of the alternating two-equation system at this activity.

    Below the critical activity only the fixed point exists; above it the
    report carries the fixed point plus the canonical pair from _solve_pair,
    and the ordered solution count is 3.
    """
    k, lam = params.k, params.lam
    lam_cr = critical_lambda(k)
    z_fix, residual, pair = _solve(k, lam, tol)
    solutions, residuals = [translation_invariant_law(z_fix)], [residual]
    if pair is not None:
        solutions.append(two_periodic_law(*pair[:2]))
        residuals.append(pair[2])
    return SolveReport(params=params, lambda_critical=lam_cr, solutions=tuple(solutions),
                       residuals=tuple(residuals), system_solution_count=2 * len(solutions) - 1,
                       degenerate_double_root=_degenerate(lam, lam_cr))


def lambda_star(k: int) -> float:
    """Threshold below which the translation-invariant measure is provably
    extremal: (1/t**k)*(1/t - 1) at the polynomial root t = t_star."""
    return critical_values(k).lambda_star


def nonextremal_bound(k: int) -> float:
    """Threshold above which the translation-invariant measure is provably not extremal:
    (sqrt(k)/(sqrt(k)-1))**k / (sqrt(k)-1), past the float range (math.inf) from k = 512,448."""
    return critical_values(k).lambda_nonextremal


def asymptotic_bound(k: int, eps: float) -> float:
    """Large-k form of the non-extremality threshold:
    e**(1+eps) * ln k * (ln k + ln ln k + 1 + eps). Needs k >= 3, eps > 0."""
    _check_int("k", k, 3)
    eps = _check_positive("eps", eps)
    lk = math.log(k)
    return math.exp(1.0 + eps) * lk * (lk + math.log(lk) + 1.0 + eps)


def s_pm(k: int) -> tuple[float, float]:
    """The two roots (k - 3 -+ sqrt(k**2 - 6k + 1)) / 4; real from k = 6 up.
    s_minus is 1/(2 s_plus) by Vieta (s_minus * s_plus = 1/2)."""
    return _thresholds(_check_int("k", k, 6))[1]


def lambda_pm(k: int) -> tuple[float, float]:
    """Activity window ((s+1)**k * s at each root) on which the I4 plane is
    guaranteed to carry at least three fixed points for i = 1. The upper end
    passes the float range from k = 161 on and is then math.inf."""
    return _thresholds(_check_int("k", k, 6))[2]


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
    return _thresholds(_check_int("k", k, 2))[0]


@lru_cache(maxsize=1 << 12)  # an entry is well under 1 KB; the default 128 thrashes on k = 2..301
def _thresholds(k: int) -> tuple[CriticalValues, tuple | None, tuple | None, tuple[int, int]]:
    """critical_values(k), s_pm(k) and lambda_pm(k) (None below k = 6), each
    value rounded once to a float from 40 + (digits of k) decimal digits, and
    the sides of lambda_star and of the Kesten-Stigum bound.

    Every threshold is the activity at which the invariant law's chain has
    second eigenvalue s2 = s, lam(s) = s/(1-s)**(k+1) (lam*z = s/(1-s) there):
    lambda_cr = lam(1/k), the Kesten-Stigum bound lam(1/sqrt(k)) =
    (r/(r-1))**k/(r-1) with r = sqrt(k), lambda_star = lam(s*) = 1/(k*s* - 1)
    at the root s* of s*(k*s - 1) = (1-s)**(k+1) with t_star = 1 - s*, and
    lambda_pm = lam(s/(1+s)) at each root of s_pm.
    The power carries k times its base's rounding, hence the digits of k.
    Nothing traps: a value past the float range is inf.

    A side is the sign of (exact - float). As the float is correctly rounded,
    a float lam lies below the exact threshold exactly when
    (lam, 0) < (float, side). It is 0 only where the threshold is a float:
    the Kesten-Stigum bound at k = 4 (16) and 9 (19683/1024), which decimal
    computes with no rounding; lambda_star is irrational."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, localcontext

    float(k)  # refuses a k past the float range before str(k) can
    with localcontext(Context(prec=40 + len(str(k)), Emax=MAX_EMAX, Emin=MIN_EMIN,
                              traps=[])) as ctx:
        def lam(s):
            return s / (1 - s) ** (k + 1)

        def side(value, inexact):
            # an inexact value is good to about 1e-38 relative: closer to its
            # float than 1e-30, its side would be a guess
            diff = value - Decimal(float(value))
            if inexact and abs(diff) <= abs(value) / 10 ** 30:
                raise InternalCheckError(f"threshold {value} too close to a float at k={k}")
            return (diff > 0) - (diff < 0)

        # s*(k*s - 1) - (1-s)**(k+1) increases on (1/k, 1), from below 0 to k - 1
        lo, hi = 1 / Decimal(k), Decimal(1)
        while hi - lo > lo / 10 ** 40:
            s = (lo + hi) / 2
            lo, hi = (s, hi) if s * (k * s - 1) < (1 - s) ** (k + 1) else (lo, s)
        s = (lo + hi) / 2
        star = 1 / (k * s - 1)
        ctx.clear_flags()
        r = Decimal(k).sqrt()
        bound = (r / (r - 1)) ** k / (r - 1)
        sides = side(star, True), side(bound, ctx.flags[Inexact])
        cv = CriticalValues(k, float(lam(1 / Decimal(k))), float(1 - s), float(star),
                            float(bound))
        if k < 6:
            return cv, None, None, sides
        s_plus = (k - 3 + Decimal(k * k - 6 * k + 1).sqrt()) / 4
        roots = (1 / (2 * s_plus), s_plus)  # Vieta: k - 3 - sqrt(...) cancels
        return (cv, tuple(map(float, roots)), tuple(float(lam(r / (1 + r))) for r in roots),
                sides)
