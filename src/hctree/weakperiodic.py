"""Boundary laws constant on the four classes cut out by an index-4 normal
subgroup of the tree's automorphism group.

The update map W acts on positive 4-vectors (z1, z2, z3, z4). Each component
combines a powered numerator, an additive middle factor and a plain divisor;
i counts the generators that flip the subgroup class (1 <= i <= k+1) and
enters through the exponents k/i and 1 - 1/i, evaluated as real powers.
W leaves four planes invariant:

    I1: z1=z2=z3=z4      I2: z1=z3, z2=z4
    I3: z1=z2, z3=z4     I4: z1=z4, z2=z3

and the fixed points on I2, I3, I4 are found by a damped-Newton multistart
on the corresponding 2-variable reduction, all starts as one numpy batch.
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

_GRID_POINTS = 32
_GRID_LO = 1e-4
_GRID_HI = 10.0
_NEWTON_MAX_ITER = 100
# the full Newton step, then halvings down to 2**-20
_STEP_GROUPS = np.split(np.ldexp(1.0, -np.arange(21)), [1, 2, 4, 8, 16])
_ITERATE_FLOOR = 1e-30
_POLISH_FLOOR = 1e-15
_ROOT_UNCERTAINTY = 1e-6
_DEDUP_TOL = 1e-8
_DIAGONAL_TOL = 1e-8


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


def _newton(wp, set_id, v, tol):
    """Damped Newton on G(v) = reduced(v) - v from every start (row of v) at
    once; central-difference Jacobian. Returns the accepted roots as rows.

    Polishes past the requested tolerance down to the attainable floor (near
    a bifurcation the residual goes flat well above zero, and iterates that
    merely sit inside the flat region would otherwise pass for extra roots),
    then keeps a start's best iterate if it meets tol. The step is halved
    while the sup-norm residual fails to decrease; iterates are floored at a
    tiny positive value so the map stays inside its domain. A start stops
    where W is undefined at a probe, the Jacobian is singular or no halving
    helps; a trial point where W is undefined just halves the step.
    """
    embed = _EMBED[set_id]
    project = [embed.index(0), embed.index(1)]

    def g(v):
        return weak_system_map(wp, v[..., embed])[..., project] - v

    gv = g(v)
    # best iterate per start: residual (inf until one is recorded), point,
    # undamped step size = distance-to-root estimate
    best_res, best_v, best_step = np.full(len(v), np.inf), v.copy(), np.full(len(v), np.inf)
    rows = np.flatnonzero(np.isfinite(gv[:, 0]))
    v, gv = v[rows], gv[rows]
    for _ in range(_NEWTON_MAX_ITER):
        res = np.abs(gv).max(axis=1)
        polished = res <= _POLISH_FLOOR * np.maximum(1.0, np.abs(v).max(axis=1))
        done = rows[polished]
        best_res[done], best_v[done], best_step[done] = res[polished], v[polished], 0.0
        rows, v, gv, res = rows[~polished], v[~polished], gv[~polished], res[~polished]
        if rows.size == 0:
            break
        h = np.maximum(1e-7 * np.abs(v), 1e-9)
        lo = np.maximum(v - h, _ITERATE_FLOOR)
        # +h and the floored -h along a, then along b
        along = np.eye(2, dtype=bool)
        gp = g(np.stack([np.where(axis, x, v) for axis in along for x in (v + h, lo)]))
        d = v - lo + h
        ga, gb = gv.T
        with np.errstate(all="ignore"):
            j00, j10 = ((gp[0] - gp[1]) / d[:, :1]).T
            j01, j11 = ((gp[2] - gp[3]) / d[:, 1:]).T
            det = j00 * j11 - j01 * j10
            step = -np.stack((j11 * ga - j01 * gb, -j10 * ga + j00 * gb), axis=1) / det[:, None]
        go = np.isfinite(gp).all(axis=(0, 2)) & (det != 0.0) & np.isfinite(det)
        rows, v, gv, res, step = rows[go], v[go], gv[go], res[go], step[go]
        better = res < best_res[rows]
        done = rows[better]
        best_res[done], best_v[done] = res[better], v[better]
        best_step[done] = np.abs(step[better]).max(axis=1)
        # halving line search: each start takes the longest of its steps that
        # lowers the residual, tried in groups of doubling size with one map
        # evaluation per group for the starts still pending
        moved = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        for factors in _STEP_GROUPS:
            if pending.size == 0:
                break
            trial = np.maximum(v[pending] + factors[:, None, None] * step[pending], _ITERATE_FLOOR)
            g_trial = g(trial)
            lower = np.abs(g_trial).max(axis=2) < res[pending]
            take = lower.any(axis=0)
            longest = lower.argmax(axis=0)[take]
            hit = pending[take]
            v[hit], gv[hit], moved[hit] = trial[longest, take], g_trial[longest, take], True
            pending = pending[~take]
        rows, v, gv = rows[moved], v[moved], gv[moved]
    # a small residual in a near-flat region is not a root; the full Newton
    # step says how far the nearest actual root still is
    scale = np.maximum(1.0, np.abs(best_v).max(axis=1))
    return best_v[(best_res <= tol) & (best_step <= _ROOT_UNCERTAINTY * scale)]


def _components(points, radius):
    """Component labels of the graph joining points closer than radius in the
    sup norm. A cell of side radius is a clique of it (up to rounding of
    points / radius), so only points in neighbouring cells need a pair test."""
    cells, cell_of = np.unique(np.floor(points / radius).astype(np.int64), axis=0,
                               return_inverse=True)
    members = np.split(np.argsort(cell_of, kind="stable"),
                       np.cumsum(np.bincount(cell_of, minlength=len(cells)))[:-1])
    index = {cell: n for n, cell in enumerate(map(tuple, cells.tolist()))}
    root = list(range(len(cells)))

    def find(n):
        while root[n] != n:
            root[n] = n = root[root[n]]
        return n

    for n, (ca, cb) in enumerate(cells.tolist()):
        for da, db in ((0, 1), (1, -1), (1, 0), (1, 1)):
            m = index.get((ca + da, cb + db))
            if m is None or find(n) == find(m):
                continue
            p, q = points[members[n]], points[members[m]]
            if any((np.abs(q - x).max(axis=1) < radius).any() for x in p):
                root[find(n)] = find(m)
    return np.array([find(c) for c in cell_of.tolist()], dtype=np.int64)


@dataclass(frozen=True)
class WeakSolveReport:
    """Fixed points of W on one invariant plane.

    Each ordered fixed point is its own entry (a swapped pair counts twice,
    matching the ordered-solution bookkeeping of the two-periodic system).
    ti_flags marks the points lying on the diagonal I1.
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


def solve_weak_periodic(
    wp: WeakPeriodicParams,
    invariant_set: str,
    tol: float = 1e-12,
    grid_points: int = _GRID_POINTS,
) -> WeakSolveReport:
    """All fixed points of W on one plane, by multistart damped Newton.

    Starts on a grid_points x grid_points log-spaced grid over
    (1e-4, 10)^2 and keeps points whose full 4-component residual meets tol.
    Converged points are merged transitively within a sqrt(tol)-scale radius
    (right at a bifurcation the merging pair is reported as one point).
    Results are sorted by coordinates, so output order is deterministic.
    """
    if invariant_set not in SOLVE_SETS:
        raise DomainError(f"invariant_set must be one of {SOLVE_SETS}, got {invariant_set!r}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")

    # At a bifurcation the residual vanishes quadratically, so Newton limits
    # scatter over a sqrt(tol)-sized blot around the true point; merge
    # transitively at that scale or the blot masquerades as many solutions.
    merge_radius = max(_DEDUP_TOL, 8.0 * math.sqrt(tol))
    ratio = (_GRID_HI / _GRID_LO) ** (1.0 / (grid_points - 1))
    grid = np.array([_GRID_LO * ratio ** j for j in range(grid_points)])
    starts = np.stack((np.repeat(grid, grid_points), np.tile(grid, grid_points)), axis=1)
    points = _newton(wp, invariant_set, starts, tol)
    points = points[((points > 1e-12) & (points < 1e9)).all(axis=1)]
    embedded = points[:, _EMBED[invariant_set]]
    full_residual = np.abs(embedded - weak_system_map(wp, embedded)).max(axis=1, initial=0.0)
    # one representative per cluster: least residual, ties to the lower point
    labels = _components(points, merge_radius)
    by_residual = np.lexsort((points[:, 1], points[:, 0], full_residual))
    chosen = by_residual[np.unique(labels[by_residual], return_index=True)[1]]
    # the embedding keeps the order of (a, b)
    found = sorted((tuple(embedded[n].tolist()), full_residual[n].item()) for n in chosen)

    laws, residuals, ti_flags = [], [], []
    for z, res in found:
        if res > tol:
            raise ConvergenceError(
                "accepted fixed point fails the full 4-component residual",
                point=z,
                residual=res,
                tol=tol,
            )
        laws.append(weak_periodic_law(z, invariant_set))
        residuals.append(res)
        # same resolution scale as the clustering: a point that cannot be
        # told apart from the diagonal counts as constant
        diag_tol = max(_DIAGONAL_TOL, merge_radius)
        ti_flags.append(max(z) - min(z) <= diag_tol * max(1.0, max(z)))
    return WeakSolveReport(
        params=wp,
        invariant_set=invariant_set,
        fixed_points=tuple(laws),
        residuals=tuple(residuals),
        ti_flags=tuple(ti_flags),
    )


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
