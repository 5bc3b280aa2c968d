"""Boundary laws constant on the four classes cut out by an index-4 normal
subgroup of the tree's automorphism group.

The update map W acts on positive 4-vectors (z1, z2, z3, z4). Each component
combines a powered numerator, an additive middle factor and a plain divisor;
i counts the generators that flip the subgroup class (1 <= i <= k+1) and
enters through the exponents k/i and 1 - 1/i, evaluated as real powers.
W leaves four planes invariant:

    I1: z1=z2=z3=z4      I2: z1=z3, z2=z4
    I3: z1=z2, z3=z4     I4: z1=z4, z2=z3

On I2 the fixed points of W solve the two-periodic system a = B**-k,
b = A**-k (A = 1+lam*a, B = 1+lam*b) for every i. With q = k/i, u = a**(1/i)
and v = b**(1/i), the i-th root of a = W1(a, b, a, b) is
u*(A**q + lam*v**(i-1))*B**(q-1) = A**q; for s = u*B**q and r = v*A**q it
and its mirror read A**q*(s-1) = lam*v**(i-1)*(r-s) and
B**q*(r-1) = lam*u**(i-1)*(s-r). s > r would give s < 1 < r and s < r
would give s > 1 > r, so s = r, and then s = r = 1: a = B**-k, b = A**-k.

On I3 and I4 a fixed point solves E(a, b) = 0 and E(b, a) = 0 for one E
monotone in its second argument, so b = F(a) and a = F(b): the fixed points
are the constant point and the two-cycles of F, roots of E(F(t), t) found by
sign changes along log t and refined to adjacent floats. The scan runs on
numpy arrays; each bracket is then refined on its own, and each fixed point
checked against W on its own, on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import (
    SOLVE_SETS,
    BoundaryLaw,
    ConvergenceError,
    DomainError,
    ModelParams,
    _check_int,
    weak_periodic_law,
)
from .solvers import _DEFAULT_TOL, _solve, critical_lambda, solve_translation_invariant

__all__ = [
    "WeakPeriodicParams",
    "WeakSolveReport",
    "solve_weak_periodic",
    "weak_system_map",
]


@dataclass(frozen=True)
class WeakPeriodicParams:
    """Branching number k >= 2, class-flipping generator count 1 <= i <= k+1,
    activity lam > 0."""

    k: int
    i: int
    lam: float

    def __post_init__(self):
        self.model()  # checks k and lam
        _check_int("i", self.i, 1, self.k + 1)

    def model(self) -> ModelParams:
        return ModelParams(self.k, self.lam)


# inputs of W's four components: za feeds the numerator and the powered part
# of the middle factor, zb the additive part, zc the plain divisor
_ZA, _ZB, _ZC = [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]


def _component(k, i, lam, za, zb, zc):
    """W's component with inputs (za, zb, zc), its numerator and its middle factor's power."""
    base = 1.0 + lam * za
    num = base ** k
    den = (base ** (k / i) + lam * zb ** (1.0 - 1.0 / i)) ** i
    return num, den, num / (den * (1.0 + lam * zc) ** (k - i))


def weak_system_map(wp: WeakPeriodicParams, z):
    """One application of the four-component update W.

    A 4-sequence gives a tuple of four floats, computed on Python floats; a
    non-positive or non-finite entry raises DomainError and an overflowing
    power OverflowError. An array of shape (..., 4) maps row by row in
    numpy, and a row that would raise comes back as NaN.
    """
    try:  # a flat sequence of numbers is one point; a nested one an array
        point = None if isinstance(z, np.ndarray) and z.ndim != 1 else tuple(map(float, z))
    except TypeError:
        point = None
    if point is None:
        arr = np.asarray(z, dtype=float)
        if arr.ndim == 1:  # a flat sequence that float() refuses, such as one holding None
            point = tuple(arr.tolist())
    k, i, lam = wp.k, wp.i, wp.lam
    if point is not None:
        if len(point) != 4:
            raise DomainError(f"weak-system values must have 4 components, got {z!r}")
        if not all(0.0 < x < math.inf for x in point):
            raise DomainError(f"weak-system values must be positive, got {z!r}")
        try:
            nums, dens, out = zip(*[_component(k, i, lam, point[a], point[b], point[c])
                                    for a, b, c in zip(_ZA, _ZB, _ZC)])
            finite = max(nums + dens) < math.inf  # each is >= 1 or inf, never NaN
        except (OverflowError, ZeroDivisionError):  # x / 0 only where some power is infinite
            finite = False
        if not finite:
            raise OverflowError(f"weak-system power overflows at {z!r}")
        return out
    if arr.shape[-1:] != (4,):
        raise DomainError(f"weak-system values must have 4 components, got {z!r}")
    with np.errstate(all="ignore"):
        num, den, out = _component(k, i, lam, arr[..., _ZA], arr[..., _ZB], arr[..., _ZC])
        # base >= 1, so no other power in a row exceeds its largest num
        no_overflow = (np.isfinite(num) & np.isfinite(den)).all(axis=-1)
    in_domain = ((arr > 0) & np.isfinite(arr)).all(axis=-1)
    out[~(in_domain & no_overflow)] = np.nan
    return out


# which of the plane coordinates (a, b) fills each of z1..z4
_EMBED = {"I2": itemgetter(0, 1, 0, 1), "I3": itemgetter(0, 0, 1, 1), "I4": itemgetter(0, 1, 1, 0)}
# the reduced planes' first fixed-point equation, z1 = W(z)[0], in the slots
# (v, za, zb, zc) of _log_equation, filled with x, y or zero
_SLOTS = {"I3": "yxxy", "I4": "yxyx"}
_GRID_POINTS = 512  # log-spaced samples of the residual below the constant point
_NEWTON_MAX_ITER = 100
_MAX_LOG_STEP = 30.0
_REFINE_MAX_ITER = 200
_SLOPE_ROUNDING = 64 * np.finfo(float).eps


def _log_equation(wp, v, za, zb, zc, partials=False, log=np.log, log1p=np.log1p):
    """log(v / w) / i, for w the component of W with inputs (za, zb, zc):
    log(v)/i + log1p(lam * zb**p * (1+lam*za)**-q) + r * log1p(lam*zc) with
    p = 1 - 1/i, q = k/i, r = k/i - 1. partials=True gives its derivatives
    in log v, log za, log zb and log zc instead. Arrays take numpy's log and
    log1p (under np.errstate), floats math's."""
    k, i, lam = wp.k, wp.i, wp.lam
    p, q, r = 1.0 - 1.0 / i, k / i, k / i - 1.0
    mid = lam * zb ** p * (1.0 + lam * za) ** -q
    if not partials:
        return log(v) / i + log1p(mid) + r * log1p(lam * zc)
    share = mid / (1.0 + mid)
    return (1.0 / i, -q * share * lam * za / (1.0 + lam * za), p * share,
            r * lam * zc / (1.0 + lam * zc))


class _Reduction:
    """I3's or I4's fixed-point equations as E(x, y) = 0 and E(y, x) = 0 for
    an E that increases with y, so y = F(x) and x = F(y): every fixed point
    off the diagonal is to_plane(t, F(t)) for a root t >= lo of the residual
    R(t) = E(F(t), t) other than the constant point `centre`."""

    def __init__(self, wp, invariant_set, z):
        k, i, lam = wp.k, wp.i, wp.lam
        # each component of W lies in ((1+lam)**-k, 1) for i <= k; I4 at i = k+1 has no pair
        self.wp, slots, self.lo, self.centre = wp, _SLOTS[invariant_set], (1.0 + lam) ** -k, z
        self.to_plane = lambda x, y: (x, y)
        if i == k + 1 and invariant_set == "I3":
            # r < 0 and p = q: the equations read X = f(Y), Y = f(X) for
            # f(t) = (1 + lam*t**p)**-i in X = a/(1+lam*a), Y = b/(1+lam*b),
            # so (1+lam)**-i < X, Y < min(1, 1/lam)
            slots, self.lo, self.centre = "y0x0", (1.0 + lam) ** -i, z / (1.0 + lam * z)
            if lam > 1.0:  # f(Y) < 1/lam
                self.lo = max(self.lo, ((lam ** (1.0 / i) - 1.0) / lam) ** (i / k))
            self.to_plane = lambda x, y: (x / (1.0 - lam * x), y / (1.0 - lam * y))
        # each slot's entry of (x, y, 0), and the slots that x and y fill
        self._fill = itemgetter(*("xy0".index(s) for s in slots))
        self._x_slots, self._y_slots = ([n for n, s in enumerate(slots) if s == w] for w in "xy")

    def equation(self, x, y, partials=False, log=np.log, log1p=np.log1p):
        return _log_equation(self.wp, *self._fill((x, y, 0.0)), partials, log, log1p)

    def slopes(self, x, y):
        """The derivatives of E in log x and in log y."""
        d = self.equation(x, y, partials=True)
        return [sum(d[n] for n in slots) for slots in (self._x_slots, self._y_slots)]

    def residual(self, t, y):
        """F(t), by Newton on log y from the starts y, and R(t) mapped into
        [-1, 1] by tanh, on arrays. E is convex in log y: Newton descends
        monotonically from above the root and overshoots at most once from
        below."""
        y, todo = y.copy(), np.arange(y.size)
        with np.errstate(all="ignore"):
            for _ in range(_NEWTON_MAX_ITER):
                tt, yt = t[todo], y[todo]
                step = np.minimum(-self.equation(tt, yt) / self.slopes(tt, yt)[1], _MAX_LOG_STEP)
                y[todo] = yt * np.exp(step)
                # convergence is quadratic, so the step just taken was the last
                todo = todo[~(np.abs(step) <= 1e-9)]
                if todo.size == 0:
                    return y, np.tanh(self.equation(y, t))
        raise ConvergenceError("elimination Newton did not converge", point=t[todo].tolist())

    def residual_at(self, t, y):
        """residual's F(t) and R(t) at one float t from one start y, on floats
        with math. Where math raises (log(0), an overflow), numpy would carry
        an inf or a NaN that never converges: both end in the same
        ConvergenceError."""
        def equation(x, y):
            return self.equation(x, y, False, math.log, math.log1p)

        try:
            for _ in range(_NEWTON_MAX_ITER):
                # min keeps a NaN step, as np.minimum does
                step = min(-equation(t, y) / self.slopes(t, y)[1], _MAX_LOG_STEP)
                y *= math.exp(step)
                if abs(step) <= 1e-9:
                    return y, math.tanh(equation(y, t))
        except (ArithmeticError, ValueError):
            pass
        raise ConvergenceError("elimination Newton did not converge", point=t)


def _refine(red, a, b, fa, fb, ya):
    """Illinois (regula falsi that halves the value of an end kept twice in
    a row) on one bracket [a, b] of floats with R > 0 at one end only, down
    to adjacent floats. Returns the end with the smaller |R| and F there."""
    yb, moved_b = ya, 0  # +1 where b moved last, -1 where a did
    for _ in range(_REFINE_MAX_ITER):
        mid = 0.5 * (a + b)
        if mid == a or mid == b or fa == 0.0 or fb == 0.0:
            return (a, ya) if abs(fa) <= abs(fb) else (b, yb)
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = mid
        yc, fc = red.residual_at(c, ya)
        if (fc > 0.0) == (fb > 0.0):
            if moved_b > 0:
                fa *= 0.5
            b, fb, yb, moved_b = c, fc, yc, 1
        else:
            if moved_b < 0:
                fb *= 0.5
            a, fa, ya, moved_b = c, fc, yc, -1
    raise ConvergenceError("bracket refinement did not converge", bracket=(a, b))


@dataclass(frozen=True)
class WeakSolveReport:
    """Fixed points of W on one invariant plane.

    Each ordered fixed point is its own entry (a swapped pair counts twice,
    matching the ordered-solution bookkeeping of the two-periodic system).
    ti_flags marks the constant point, the one on the diagonal I1.
    residuals are sup-norm distances |W(z) - z|.
    """

    params: WeakPeriodicParams
    invariant_set: str
    fixed_points: tuple[BoundaryLaw, ...]
    residuals: tuple[float, ...]
    ti_flags: tuple[bool, ...]

    @property
    def count(self) -> int:
        return len(self.fixed_points)

    @property
    def non_ti_count(self) -> int:
        return self.count - sum(self.ti_flags)


def _reduced_pairs(wp, invariant_set, z):
    """F's two-cycles around the constant point z on I3 or I4, as points
    (a, b), with the bracket each was refined from. Each has one point t
    below z (no counterexample is known; a violation raises), so R is
    sampled at 512 log-spaced t below z. Just below z, R has the sign of its
    slope there, which decides a pitchfork split; a slope within rounding of
    zero, as at the bifurcation activity itself, splits nothing."""
    red = _Reduction(wp, invariant_set, z)
    if red.lo < np.finfo(float).tiny:  # the log-spaced grid needs a normal lower end
        raise ConvergenceError("the lower end of the plane's search grid underflows "
                               "at this activity", lower_end=red.lo)
    c, n = red.centre, _GRID_POINTS
    t = np.geomspace(red.lo, c, n + 1)[:-1]
    y, f = red.residual(t, np.full(n, c))
    cells = np.flatnonzero((f[:-1] > 0.0) != (f[1:] > 0.0))
    a, b, fa, fb, ya = t[cells], t[cells + 1], f[cells], f[cells + 1], y[cells]
    # just below c, R has the sign of dE/dlog x - dE/dlog y at (c, c)
    slope_x, slope_y = red.slopes(c, c)
    below = slope_x > slope_y
    if (abs(slope_x - slope_y) > _SLOPE_ROUNDING * (abs(slope_x) + abs(slope_y))
            and (f[-1] > 0.0) != below):
        # a pair split off the constant point: close in on c until R takes that sign
        probes = c + (t[-1] - c) * np.ldexp(1.0, -np.arange(60))
        probes = np.concatenate(([t[-1]], probes[(probes > t[-1]) & (probes < c)]))
        yp, fp = red.residual(probes, np.full(probes.size, c))
        past = np.flatnonzero((fp > 0.0) == below)
        if past.size == 0:
            raise ConvergenceError("the pair split off the constant point is below resolution",
                                   point=(z, z), bracket=(t[-1].item(), c))
        j = past[0]
        a, b = np.append(a, probes[j - 1]), np.append(b, probes[j])
        fa, fb, ya = np.append(fa, fp[j - 1]), np.append(fb, fp[j]), np.append(ya, yp[j - 1])
    a, b = a.tolist(), b.tolist()
    roots = [_refine(red, *ends) for ends in zip(a, b, fa.tolist(), fb.tolist(), ya.tolist())]
    if any(y <= c for _, y in roots):
        raise ConvergenceError("a two-cycle lies below the constant point",
                               images=[y for _, y in roots])
    return [red.to_plane(t, y) for t, y in roots], list(zip(a, b))


def solve_weak_periodic(wp: WeakPeriodicParams, invariant_set: str,
                        tol: float = _DEFAULT_TOL) -> WeakSolveReport:
    """All fixed points of W on one plane: solve_two_periodic's on I2 (see the
    module docstring), the reduction's on I3 and I4 above lambda_cr, each solved
    at tol; the constant point is exactly diagonal. Every point must meet the
    relative residual max |W(z) - z| / z <= tol, or ConvergenceError reports
    it, with its bracket on I3 and I4. Results are sorted by coordinates."""
    if invariant_set not in SOLVE_SETS:
        raise DomainError(f"invariant_set must be one of {SOLVE_SETS}, got {invariant_set!r}")
    if invariant_set == "I2":
        z, _, pair = _solve(wp.k, wp.lam, tol)
        pairs = [pair[:2]] if pair else []
        brackets = [None] * len(pairs)
    else:
        z = solve_translation_invariant(wp.model(), tol)
        pairs, brackets = [], []
        # at lam <= lam_cr the Gibbs measure is unique, and every fixed point of W gives one
        if wp.lam > critical_lambda(wp.k):
            pairs, brackets = _reduced_pairs(wp, invariant_set, z)
    # the constant point, then each pair and its mirror image, gated one at a time on floats
    points = [_EMBED[invariant_set](ab) for ab in [(z, z), *pairs, *((b, a) for a, b in pairs)]]
    residuals = []
    for point, bracket in zip(points, [None, *brackets, *brackets]):
        try:
            error = [abs(w - x) for w, x in zip(weak_system_map(wp, point), point)]
        except (DomainError, OverflowError):  # a point W cannot map fails with NaN residuals
            error = [math.nan]
        residual, relative = max(error), max(e / x for e, x in zip(error, point))
        if not relative <= tol:
            raise ConvergenceError("refined root fails the relative 4-component residual gate",
                                   point=point, residual=residual, relative_residual=relative,
                                   tol=tol, bracket=bracket)
        residuals.append(residual)
    flags = [True] + [False] * 2 * len(pairs)
    values, residuals, flags = zip(*sorted(zip(points, residuals, flags)))
    laws = tuple(weak_periodic_law(v, invariant_set) for v in values)
    return WeakSolveReport(wp, invariant_set, laws, residuals, flags)
