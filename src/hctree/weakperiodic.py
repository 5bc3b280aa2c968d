"""Boundary laws constant on the four classes cut out by an index-4 normal
subgroup of the tree's automorphism group.

The update map W acts on positive 4-vectors (z1, z2, z3, z4). Each component
combines a powered numerator, an additive middle factor and a plain divisor;
i counts the generators that flip the subgroup class (1 <= i <= k+1) and
enters through the exponents k/i and 1 - 1/i, evaluated as real powers.
W leaves four planes invariant:

    I1: z1=z2=z3=z4      I2: z1=z3, z2=z4
    I3: z1=z2, z3=z4     I4: z1=z4, z2=z3

On I2, I3 and I4 W is symmetric under the swap of the plane coordinates
(a, b), and a fixed point solves E(a, b) = 0 and E(b, a) = 0 for one scalar
function E that is monotone in its second argument. So b = F(a), a = F(b),
and the fixed points are the constant point of I1 together with the
two-cycles of the one-dimensional map F: roots of E(F(t), t) in t, found by
sign changes along log t and refined to adjacent floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryLaw,
    ConvergenceError,
    DomainError,
    ModelParams,
    _check_int,
    weak_periodic_law,
)
from .solvers import solve_translation_invariant

__all__ = [
    "SOLVE_SETS",
    "WeakPeriodicParams",
    "WeakSolveReport",
    "invariant_set_check",
    "lambda_pm",
    "s_pm",
    "solve_weak_periodic",
    "weak_system_map",
]

SOLVE_SETS = ("I2", "I3", "I4")


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
_MAP_BLOCK = 512


def weak_system_map(wp: WeakPeriodicParams, z):
    """One application of the four-component update W.

    A 4-sequence gives a tuple of four floats; a non-positive or non-finite
    entry raises DomainError and an overflowing power OverflowError. An
    array of shape (..., 4) maps row by row, and a row that would raise
    comes back as NaN.
    """
    arr = np.asarray(z, dtype=float)
    if arr.shape[-1:] != (4,):
        raise DomainError(f"weak-system values must have 4 components, got {z!r}")
    k, i, lam = wp.k, wp.i, wp.lam
    rows = arr.reshape(-1, 4)
    out, no_overflow = np.empty_like(rows), np.empty(len(rows), dtype=bool)
    # a block of rows at a time keeps the temporaries of a large batch small
    for block in (slice(lo, lo + _MAP_BLOCK) for lo in range(0, len(rows), _MAP_BLOCK)):
        with np.errstate(all="ignore"):
            base = 1.0 + lam * rows[block][:, _ZA]
            num = base ** k
            den = (base ** (k / i) + lam * rows[block][:, _ZB] ** (1.0 - 1.0 / i)) ** i
            # base >= 1, so no other power in a row exceeds its largest num
            no_overflow[block] = (np.isfinite(num) & np.isfinite(den)).all(axis=1)
            den *= (1.0 + lam * rows[block][:, _ZC]) ** (k - i)
            np.divide(num, den, out=out[block])
    out, no_overflow = out.reshape(arr.shape), no_overflow.reshape(arr.shape[:-1])
    in_domain = ((arr > 0) & np.isfinite(arr)).all(axis=-1)
    if arr.ndim == 1:
        if not in_domain:
            raise DomainError(f"weak-system values must be positive, got {z!r}")
        if not no_overflow:
            raise OverflowError(f"weak-system power overflows at {z!r}")
        return tuple(out.tolist())
    out[~(in_domain & no_overflow)] = np.nan
    return out


def _in_set(set_id: str, z, tol: float) -> bool:
    z1, z2, z3, z4 = z
    if set_id == "I1":
        return max(z1, z2, z3, z4) - min(z1, z2, z3, z4) <= tol
    if set_id == "I2":
        return abs(z1 - z3) <= tol and abs(z2 - z4) <= tol
    if set_id == "I3":
        return abs(z1 - z2) <= tol and abs(z3 - z4) <= tol
    if set_id == "I4":
        return abs(z1 - z4) <= tol and abs(z2 - z3) <= tol
    raise DomainError(f"unknown invariant set {set_id!r}")


def invariant_set_check(wp: WeakPeriodicParams, set_id: str, z, tol: float = 1e-9) -> bool:
    """True when z lies in the named plane and W(z) stays in it."""
    z = tuple(float(v) for v in z)
    if not _in_set(set_id, z, tol):
        return False
    return _in_set(set_id, weak_system_map(wp, z), tol)


# which of the plane coordinates (a, b) fills each of z1..z4
_EMBED = {"I2": [0, 1, 0, 1], "I3": [0, 0, 1, 1], "I4": [0, 1, 1, 0]}
# each plane's first fixed-point equation, z1 = W(z)[0], in the slots
# (v, za, zb, zc) of _log_equation, filled with x, y or zero
_SLOTS = {"I2": "xxyy", "I3": "yxxy", "I4": "yxyx"}
_GRID_POINTS = 512  # log-spaced samples of the residual below the constant point
_NEWTON_MAX_ITER = 100
_MAX_LOG_STEP = 30.0
_REFINE_MAX_ITER = 200
_SLOPE_ROUNDING = 64 * np.finfo(float).eps


def _log_equation(wp, v, za, zb, zc, partials=False):
    """log(v / w) / i, for w the component of W with inputs (za, zb, zc):
    log(v)/i + log1p(lam * zb**p * (1+lam*za)**-q) + r * log1p(lam*zc) with
    p = 1 - 1/i, q = k/i, r = k/i - 1. partials=True gives its derivatives
    in log v, log za, log zb and log zc instead."""
    k, i, lam = wp.k, wp.i, wp.lam
    p, q, r = 1.0 - 1.0 / i, k / i, k / i - 1.0
    with np.errstate(all="ignore"):
        mid = lam * zb ** p * (1.0 + lam * za) ** -q
        if not partials:
            return np.log(v) / i + np.log1p(mid) + r * np.log1p(lam * zc)
        share = mid / (1.0 + mid)
        return (1.0 / i, -q * share * lam * za / (1.0 + lam * za), p * share,
                r * lam * zc / (1.0 + lam * zc))


class _Reduction:
    """One plane's fixed-point equations as E(x, y) = 0 and E(y, x) = 0 for
    an E that increases with y, so y = F(x) and x = F(y): every fixed point
    off the diagonal is to_plane(t, F(t)) for a root t >= lo of the residual
    R(t) = E(F(t), t) other than the constant point `centre`."""

    def __init__(self, wp, invariant_set, z):
        k, i, lam = wp.k, wp.i, wp.lam
        # each component of W lies in ((1+lam)**-k, 1) for i <= k; I4 at i = k+1 has no pair
        self.wp, self.slots, self.lo, self.centre = wp, _SLOTS[invariant_set], (1.0 + lam) ** -k, z
        self.to_plane = lambda x, y: (x, y)
        if i == k + 1 and invariant_set != "I4":
            # r < 0, and E is not monotone in y on I2. As p = q, the planes'
            # equations read X = f(Y), Y = f(X) for f(t) = (1 + lam*t**p)**-i
            # in X = a/(1+lam*b), Y = b/(1+lam*a) on I2 and X = a/(1+lam*a),
            # Y = b/(1+lam*b) on I3; so (1+lam)**-i < X, Y < 1, and on I3
            # X, Y < 1/lam as well
            self.slots, self.lo, self.centre = "y0x0", (1.0 + lam) ** -i, z / (1.0 + lam * z)
            if invariant_set == "I2":
                def back(x, y):
                    return x * (1.0 + lam * y) / (1.0 - lam * lam * x * y)
                self.to_plane = lambda x, y: (back(x, y), back(y, x))
            else:
                if lam > 1.0:  # f(Y) < 1/lam
                    self.lo = max(self.lo, ((lam ** (1.0 / i) - 1.0) / lam) ** (i / k))
                self.to_plane = lambda x, y: (x / (1.0 - lam * x), y / (1.0 - lam * y))

    def equation(self, x, y, partials=False):
        fill = {"x": x, "y": y, "0": 0.0}
        return _log_equation(self.wp, *(fill[s] for s in self.slots), partials=partials)

    def slopes(self, x, y):
        """The derivatives of E in log x and in log y."""
        d = self.equation(x, y, partials=True)
        return [sum(dv for dv, s in zip(d, self.slots) if s == wrt) for wrt in "xy"]

    def eliminate(self, x, y):
        """F(x), by Newton on log y from the starts y. E is convex in log y:
        Newton descends monotonically from above the root and overshoots at
        most once from below. Where E(x, 0+) >= 0 (on I2 only) F(x) is 0,
        and R = E(0, t) = -inf says that there is no fixed point."""
        y = np.where(self.equation(x, 0.0) >= 0.0, 0.0, y)
        todo = np.flatnonzero(y > 0.0)
        for _ in range(_NEWTON_MAX_ITER):
            if todo.size == 0:
                return y
            xt, yt = x[todo], y[todo]
            step = np.minimum(-self.equation(xt, yt) / self.slopes(xt, yt)[1], _MAX_LOG_STEP)
            y[todo] = yt * np.exp(step)
            # convergence is quadratic, so the step just taken was the last
            todo = todo[~(np.abs(step) <= 1e-9)]
        raise ConvergenceError("elimination Newton did not converge", point=x[todo].tolist())

    def residual(self, t, y):
        """F(t) from the starts y, and R(t) mapped into [-1, 1] by tanh."""
        y = self.eliminate(t, y)
        return y, np.tanh(self.equation(y, t))


def _refine(red, a, b, fa, fb, ya):
    """Illinois (regula falsi that halves the value of an end kept twice in
    a row) on brackets [a, b] with R > 0 at one end only, down to adjacent
    floats. Returns one end of each bracket and F there."""
    yb, moved_b = ya.copy(), np.zeros(a.size)  # +1 where b moved last, -1 where a did
    for _ in range(_REFINE_MAX_ITER):
        mid = 0.5 * (a + b)
        todo = np.flatnonzero((mid != a) & (mid != b) & (fa != 0.0) & (fb != 0.0))
        if todo.size == 0:
            near_a = np.abs(fa) <= np.abs(fb)
            return np.where(near_a, a, b), np.where(near_a, ya, yb)
        at, bt, fat, fbt = a[todo], b[todo], fa[todo], fb[todo]
        c = bt - fbt * (bt - at) / (fbt - fat)
        c = np.where((c > at) & (c < bt), c, mid[todo])
        yc, fc = red.residual(c, ya[todo])
        to_b = (fc > 0.0) == (fbt > 0.0)
        fa[todo] = np.where(to_b & (moved_b[todo] > 0), 0.5 * fat, fat)
        fb[todo] = np.where(~to_b & (moved_b[todo] < 0), 0.5 * fbt, fbt)
        for ends, f, y, moved in ((b, fb, yb, to_b), (a, fa, ya, ~to_b)):
            ends[todo[moved]], f[todo[moved]], y[todo[moved]] = c[moved], fc[moved], yc[moved]
        moved_b[todo] = np.where(to_b, 1.0, -1.0)
    raise ConvergenceError("bracket refinement did not converge", bracket=(a.tolist(), b.tolist()))


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


def solve_weak_periodic(wp: WeakPeriodicParams, invariant_set: str,
                        tol: float = 1e-12) -> WeakSolveReport:
    """All fixed points of W on one plane, by the reduction of _Reduction.

    The constant point comes from its own equation z = (1 + lam*z)**-k and
    is exactly diagonal. Each two-cycle of F has one point t below it (no
    counterexample is known; a violation raises), so R is sampled at 512
    log-spaced t below it, each sign change is refined to adjacent floats,
    and (t, F(t)) gives a point and its mirror image. Just below the
    constant point R takes the sign of its slope there, which decides a
    pitchfork split; a slope within rounding of zero, as at the bifurcation
    activity itself, splits nothing. Every point must meet the relative
    residual max |W(z) - z| / z <= tol, or ConvergenceError reports its
    bracket. Results are sorted by coordinates.
    """
    if invariant_set not in SOLVE_SETS:
        raise DomainError(f"invariant_set must be one of {SOLVE_SETS}, got {invariant_set!r}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    z = solve_translation_invariant(wp.model())
    red = _Reduction(wp, invariant_set, z)
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
                                   point=(z, z), bracket=(t[-1], c))
        j = past[0]
        a, b = np.append(a, probes[j - 1]), np.append(b, probes[j])
        fa, fb, ya = np.append(fa, fp[j - 1]), np.append(fb, fp[j]), np.append(ya, yp[j - 1])
    roots, y = _refine(red, a, b, fa, fb, ya)
    if (y <= c).any():
        raise ConvergenceError("a two-cycle lies below the constant point", images=y.tolist())
    # the constant point, then each root's point and its mirror image
    pairs = np.stack(red.to_plane(roots, y), axis=1)
    embedded = np.concatenate(([(z, z)], pairs, pairs[:, ::-1]))[:, _EMBED[invariant_set]]
    error = np.abs(weak_system_map(wp, embedded) - embedded)
    residuals, relative = error.max(axis=1), (error / embedded).max(axis=1)
    brackets = list(zip(a.tolist(), b.tolist()))
    for m in np.flatnonzero(~(relative <= tol)):
        raise ConvergenceError("refined root fails the relative 4-component residual gate",
                               point=tuple(embedded[m].tolist()), residual=residuals[m].item(),
                               relative_residual=relative[m].item(), tol=tol,
                               bracket=brackets[(m - 1) % len(brackets)] if m else None)
    flags = [True] + [False] * 2 * roots.size
    found = sorted(zip(map(tuple, embedded.tolist()), residuals.tolist(), flags))
    values, residuals, flags = zip(*found)
    laws = tuple(weak_periodic_law(v, invariant_set) for v in values)
    return WeakSolveReport(wp, invariant_set, laws, residuals, flags)


def s_pm(k: int) -> tuple[float, float]:
    """The two roots (k - 3 -+ sqrt(k**2 - 6k + 1)) / 4; real from k = 6 up.

    Vieta gives s_minus * s_plus = 1/2 for every such k.
    """
    _check_int("k", k, 6)
    d = math.sqrt(k * k - 6.0 * k + 1.0)
    return ((k - 3.0 - d) / 4.0, (k - 3.0 + d) / 4.0)


def lambda_pm(k: int) -> tuple[float, float]:
    """Activity window ((s+1)**k * s at each root) on which the I4 plane is
    guaranteed to carry at least three fixed points for i = 1."""
    sm, sp = s_pm(k)
    return ((sm + 1.0) ** k * sm, (sp + 1.0) ** k * sp)
