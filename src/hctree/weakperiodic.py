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
sign changes along log t and refined to adjacent floats. Only that scan runs
on numpy arrays, and only it imports numpy; each bracket is then refined, and
each fixed point checked against W, on its own on Python floats. Newton for F
reads E and its log-y slope in one evaluation, the pitchfork test both slopes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter

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


def weak_system_map(wp: WeakPeriodicParams, z) -> tuple[float, float, float, float]:
    """One application of the four-component update W to one point.

    z is a 4-sequence of numbers (a list, a tuple or a 1-D array), mapped on
    Python floats to a tuple of four floats. Anything else, a non-positive or
    non-finite entry included, raises DomainError; a power that overflows
    anywhere in a component raises OverflowError.
    """
    try:
        point = tuple(map(float, z))
    except (TypeError, ValueError):  # a nested sequence, a 2-D array, a None entry
        raise DomainError(f"weak-system values must be a sequence of numbers, got {z!r}") from None
    if len(point) != 4:
        raise DomainError(f"weak-system values must have 4 components, got {z!r}")
    if not all(0.0 < x < math.inf for x in point):
        raise DomainError(f"weak-system values must be positive, got {z!r}")
    k, i, lam = wp.k, wp.i, wp.lam
    z1, z2, z3, z4 = point
    out = []
    try:
        # za feeds the numerator and the powered part of the middle factor,
        # zb the additive part, zc the plain divisor
        for za, zb, zc in ((z3, z4, z2), (z4, z3, z1), (z1, z2, z4), (z2, z1, z3)):
            base = 1.0 + lam * za
            den = (base ** (k / i) + lam * zb ** (1.0 - 1.0 / i)) ** i
            out.append(base ** k / (den * (1.0 + lam * zc) ** (k - i)))
    except (OverflowError, ZeroDivisionError):  # x / 0 only where some power is infinite
        out = [math.nan]
    # the numerator is >= 1, so a component is 0, inf or NaN only where a
    # power or the quotient overflowed
    if not all(0.0 < w < math.inf for w in out):
        raise OverflowError(f"weak-system power overflows at {z!r}")
    return tuple(out)


# which of the plane coordinates (a, b) fills each of z1..z4
_EMBED = {"I2": itemgetter(0, 1, 0, 1), "I3": itemgetter(0, 0, 1, 1), "I4": itemgetter(0, 1, 1, 0)}
# the reduced planes' first fixed-point equation, z1 = W(z)[0], in the slots
# (v, za, zb, zc) of _Reduction.equation, filled with x, y or zero
_SLOTS = {"I3": "yxxy", "I4": "yxyx"}
_GRID_POINTS = 512  # log-spaced samples of the residual below the constant point
_NEWTON_MAX_ITER = 100
_MAX_LOG_STEP = 30.0
_REFINE_MAX_ITER = 200
_SLOPE_ROUNDING = 64 * math.ulp(1.0)


class _Reduction:
    """I3's or I4's fixed-point equations as E(x, y) = 0 and E(y, x) = 0 for
    an E that increases with y, so y = F(x) and x = F(y): every fixed point
    off the diagonal is to_plane(t, F(t)) for a root t >= lo of the residual
    R(t) = E(F(t), t) other than the constant point `centre`."""

    def __init__(self, wp, invariant_set, z):
        k, i, lam = wp.k, wp.i, wp.lam
        self.i, self.lam, self.p, self.q, self.r = i, lam, 1.0 - 1.0 / i, k / i, k / i - 1.0
        # each component of W lies in ((1+lam)**-k, 1) for i <= k; I4 at i = k+1 has no pair
        slots, self.lo, self.centre = _SLOTS[invariant_set], (1.0 + lam) ** -k, z
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

    def _mid(self, za, zb):
        return self.lam * zb ** self.p * (1.0 + self.lam * za) ** -self.q

    def equation(self, x, y, log, log1p):
        """E(x, y) = log(v / w) / i for w the component of W on (za, zb, zc),
        with x, y or 0 in the slots (v, za, zb, zc): numpy's log and log1p on
        arrays (under np.errstate), math's on floats."""
        v, za, zb, zc = self._fill((x, y, 0.0))
        return log(v) / self.i + log1p(self._mid(za, zb)) + self.r * log1p(self.lam * zc)

    def slopes(self, x, y):
        """The derivatives of E in log x and in log y."""
        _, za, zb, zc = self._fill((x, y, 0.0))
        lam, mid = self.lam, self._mid(za, zb)
        share = mid / (1.0 + mid)
        d = (1.0 / self.i, -self.q * share * lam * za / (1.0 + lam * za), self.p * share,
             self.r * lam * zc / (1.0 + lam * zc))
        return [sum(d[n] for n in slots) for slots in (self._x_slots, self._y_slots)]

    def newton(self, x, y, log, log1p):
        """E and its log-y slope, bit for bit as equation and slopes(x, y)[1]
        but sharing mid and lam*zc: 1/i from v, plus zb's term (I4) or zc's (I3)."""
        v, za, zb, zc = self._fill((x, y, 0.0))
        mid, lam_zc = self._mid(za, zb), self.lam * zc
        e = log(v) / self.i + log1p(mid) + self.r * log1p(lam_zc)
        slope = 1.0 / self.i
        if 2 in self._y_slots:
            slope += self.p * (mid / (1.0 + mid))
        elif 3 in self._y_slots:
            slope += self.r * self.lam * zc / (1.0 + lam_zc)
        return e, slope

    def residual(self, t, y):
        """F(t), by Newton on log y from the starts y, and R(t) mapped into
        [-1, 1] by tanh, on arrays. E is convex in log y: Newton descends
        monotonically from above the root and overshoots at most once from
        below."""
        import numpy as np

        done = np.zeros(t.size, dtype=bool)
        with np.errstate(all="ignore"):
            for _ in range(_NEWTON_MAX_ITER):
                e, slope = self.newton(t, y, np.log, np.log1p)
                step = np.minimum(-e / slope, _MAX_LOG_STEP)
                y = np.where(done, y, y * np.exp(step))
                # convergence is quadratic, so the step just taken was the last
                done |= np.abs(step) <= 1e-9
                if done.all():
                    return y, np.tanh(self.equation(y, t, np.log, np.log1p))
        raise ConvergenceError("elimination Newton did not converge", point=t[~done].tolist())

    def residual_at(self, t, y):
        """residual's F(t) and R(t) at one float t from one start y, on floats
        with math. Where math raises (log(0), an overflow), numpy would carry
        an inf or a NaN that never converges: both end in the same
        ConvergenceError."""
        try:
            for _ in range(_NEWTON_MAX_ITER):
                e, slope = self.newton(t, y, math.log, math.log1p)
                # min keeps a NaN step, as np.minimum does
                step = min(-e / slope, _MAX_LOG_STEP)
                y *= math.exp(step)
                if abs(step) <= 1e-9:
                    return y, math.tanh(self.equation(y, t, math.log, math.log1p))
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
    import numpy as np

    red = _Reduction(wp, invariant_set, z)
    if red.lo < sys.float_info.min:  # the log-spaced grid needs a normal lower end
        raise ConvergenceError("the lower end of the plane's search grid underflows "
                               "at this activity", lower_end=red.lo)
    c, n = red.centre, _GRID_POINTS
    # np.geomspace(red.lo, c, n + 1)[:-1] bit for bit, without its sign and dtype handling
    t = 10.0 ** np.linspace(np.log10(red.lo), np.log10(c), n + 1)[:-1]
    t[0] = red.lo
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
