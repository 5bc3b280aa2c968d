"""Reference answers the benchmark checks the program's outputs against.

Everything here is written from the model's definitions, not from the
package: fixed points come from bisection on z*(1 + lam*z)**k = 1, the
two-step chain is the product of two one-step matrices, thresholds are found
by bisecting the certificate values over the activity, and finite-ball sums
use a level-by-level recursion on the symmetric ball. Nothing imports
`hctree`.
"""

from __future__ import annotations

import itertools
import math

# certificate values this close to 1 may round either way in the program
VERDICT_MARGIN = 1e-9

EXTREMAL = "ProvenExtremal"
NONEXTREMAL = "ProvenNonExtremal"
UNDETERMINED = "Undetermined"
TI = "translation-invariant"
PAIR = "two-periodic"


def _bisect(fn, lo, hi):
    """Root of an increasing fn on (lo, hi), to the last bit."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if fn(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def recursion(k, lam, z):
    return (1.0 + lam * z) ** (-k)


def fixed_point(k, lam):
    """The constant law: z * (1 + lam*z)**k = 1, increasing in z on (0, 1)."""
    return _bisect(lambda z: z * (1.0 + lam * z) ** k - 1.0, 0.0, 1.0)


def critical_lambda(k):
    # |f'(z)| = k*lam*z/(1 + lam*z) reaches 1 at lam*z = 1/(k-1), where the
    # fixed point is z = ((k-1)/k)**k
    return 1.0 / ((k - 1) * ((k - 1) / k) ** k)


def has_pair(k, lam):
    """The alternating pair exists strictly above the critical activity;
    within 1e-12 of it the pair has collapsed onto the fixed point."""
    lam_cr = critical_lambda(k)
    return lam > lam_cr and abs(lam - lam_cr) > 1e-12 * max(1.0, lam_cr)


def pair(k, lam):
    """The two-cycle (z1 < z2) of the recursion, by bisection of f(f(z)) - z
    on (0, z_fix): positive near 0, negative just left of z_fix."""
    z_fix = fixed_point(k, lam)
    z1 = _bisect(lambda z: z - recursion(k, lam, recursion(k, lam, z)), 0.0, z_fix * (1 - 1e-9))
    return z1, recursion(k, lam, z1)


def chain_values(k, lam, law):
    """Certificate values of the chain a law induces, as the program names them.

    A free parent has an occupied child with probability a = w/(1 + w),
    w = lam*z; an occupied parent never does. That one-step matrix has
    second eigenvalue -a, the two-step matrix the product of two of them,
    and for a 2x2 stochastic matrix the row contraction equals the second
    eigenvalue's magnitude. Written this way nothing cancels, even where
    a is 1e-15.
    """
    kind, values = law
    occ = [lam * z / (1.0 + lam * z) for z in values]
    if kind == TI:
        (a,), k_eff = occ, k
        p01, p10, p11 = a, 1.0, 0.0
        s2 = a
    else:
        (a, b), k_eff = occ, k * k
        p01, p10, p11 = (1.0 - a) * b, 1.0 - b, b
        s2 = a * b
    p00 = 1.0 - p01
    gamma = lam / (lam + 1.0)
    return {
        "k_eff": k_eff,
        "s2": s2,
        "kappa": s2,
        "gamma": gamma,
        "ks_value": k_eff * s2 * s2,
        "msw_value": k_eff * s2 * gamma,
        # (sqrt(p00*p11) - sqrt(p01*p10))**2 with the determinant s2 factored out
        "martinelli_value": k_eff * s2 * s2 / (math.sqrt(p00 * p11) + math.sqrt(p01 * p10)) ** 2,
        "mossel_value": k_eff * s2 * s2 / min(p00 + p10, p01 + p11),
    }


def verdicts(vals):
    """Every verdict a sound program may give for these certificate values.

    A value within VERDICT_MARGIN of 1 may fall on either side after
    rounding; each such test is tried both ways.
    """

    def sides(x, fires):
        if abs(x - 1.0) <= VERDICT_MARGIN:
            return (False, True)
        return (fires(x),)

    out = set()
    for nonext, *ext in itertools.product(
        sides(vals["ks_value"], lambda x: x > 1.0),
        sides(vals["msw_value"], lambda x: x < 1.0),
        sides(vals["martinelli_value"], lambda x: x <= 1.0),
        sides(vals["mossel_value"], lambda x: x <= 1.0),
    ):
        if nonext and any(ext):
            continue
        out.add(NONEXTREMAL if nonext else EXTREMAL if any(ext) else UNDETERMINED)
    return out


def laws(k, lam):
    """Every law at this activity, as (kind, ascending values)."""
    found = [(TI, (fixed_point(k, lam),))]
    if has_pair(k, lam):
        found.append((PAIR, pair(k, lam)))
    return found


def pair_or_single(k, lam):
    """The law a sweep reports on: the pair where it exists, else the constant law."""
    return laws(k, lam)[-1]


def _ti_value(k, name):
    return lambda lam: chain_values(k, lam, (TI, (fixed_point(k, lam),)))[name]


def lambda_where_one(k, name):
    """The activity at which the constant law's certificate value equals 1
    (each value increases with the activity)."""
    value = _ti_value(k, name)
    return math.exp(_bisect(lambda x: value(math.exp(x)) - 1.0, -10.0, 10.0))


def critical(k, eps=0.1):
    """Every threshold `hctree critical` prints for this k."""
    lam_star = lambda_where_one(k, "msw_value")
    out = {
        "lambda_critical": critical_lambda(k),
        # t = 1/(1 + lam*z) at lambda_star
        "t_star": 1.0 / (1.0 + lam_star * fixed_point(k, lam_star)),
        "lambda_star": lam_star,
        "kesten_stigum_bound": lambda_where_one(k, "ks_value"),
    }
    if k >= 3:
        lk = math.log(k)
        out["asymptotic_bound"] = math.exp(1.0 + eps) * lk * (lk + math.log(lk) + 1.0 + eps)
    if k >= 6:
        # the roots of 2*s**2 - (k-3)*s + 1, and (s+1)**k * s at each
        disc = math.sqrt((k - 3.0) ** 2 - 8.0)
        s_minus, s_plus = (k - 3.0 - disc) / 4.0, (k - 3.0 + disc) / 4.0
        out.update(
            s_minus=s_minus,
            s_plus=s_plus,
            lambda_minus=(s_minus + 1.0) ** k * s_minus,
            lambda_plus=(s_plus + 1.0) ** k * s_plus,
        )
    return out


def h_value(lam):
    """k=3 spectral diagnostic along the pair: 9 * s2**2 - 1."""
    return 9.0 * chain_values(3, lam, (PAIR, pair(3, lam)))["s2"] ** 2 - 1.0


# ---------------------------------------------------------------------------
# weak-periodic system


def weak_map(k, i, lam, z):
    """The four-component update W, from its definition."""

    def comp(za, zb, zc):
        base = 1.0 + lam * za
        mid = base ** (k / i) + lam * zb ** (1.0 - 1.0 / i)
        return base**k / (mid**i * (1.0 + lam * zc) ** (k - i))

    z1, z2, z3, z4 = z
    return (comp(z3, z4, z2), comp(z4, z3, z1), comp(z1, z2, z4), comp(z2, z1, z3))


PLANES = {
    "I2": lambda z: z[0] == z[2] and z[1] == z[3],
    "I3": lambda z: z[0] == z[1] and z[2] == z[3],
    "I4": lambda z: z[0] == z[3] and z[1] == z[2],
}


# ---------------------------------------------------------------------------
# finite balls (symmetric, so one value per level suffices)


def ball_size(k, depth, full):
    """Vertices of the ball; a full root has k+1 children, every other vertex k."""
    per_branch = sum(k**lev for lev in range(depth))
    return 1 + (k + 1 if full else k) * per_branch


def _level_pairs(k, depth, full, leaf, lift):
    """Fold (free, occupied) values from the leaves up to the root."""
    f, o = leaf
    for lev in range(depth - 1, -1, -1):
        fanout = k + 1 if (lev == 0 and full) else k
        f, o = lift(f, o, fanout)
    return f, o


def admissible_count(k, depth, full):
    if depth == 0:
        return 2
    return sum(_level_pairs(k, depth, full, (1, 1), lambda f, o, n: ((f + o) ** n, f**n)))


def partition_pair(k, depth, full, lam, z):
    """(Z with root free, Z with root occupied) under boundary weight z."""
    if depth == 0:
        return 1, lam * z
    return _level_pairs(k, depth, full, (1, lam * z), lambda f, o, n: ((f + o) ** n, lam * f**n))


def consistency_deviation(k, depth, full, lam, z_at_level):
    """Largest gap, over configurations of levels 0..depth-1, between the
    depth-n measure summed over its leaves and the depth-(n-1) measure.

    Summing out the leaves below a free vertex u at level n-1 gives the
    factor prod(1 + lam*z_c) over its children c; below an occupied u they
    must all be empty, giving 1.
    """
    parent, level = [-1], [0]
    frontier = [0]
    for lev in range(1, depth):
        nxt = []
        for v in frontier:
            for _ in range(k + 1 if (v == 0 and full) else k):
                parent.append(v)
                level.append(lev)
                nxt.append(len(parent) - 1)
        frontier = nxt
    fanout = [k + 1 if (v == 0 and full) else k for v in range(len(parent))]
    last = depth - 1
    leaf_factor = 1.0 + lam * z_at_level(depth)
    w_n, w_m = [], []
    for spins in itertools.product((0, 1), repeat=len(parent)):
        if any(spins[v] and parent[v] >= 0 and spins[parent[v]] for v in range(len(parent))):
            continue
        base = lam ** sum(spins)
        wn = wm = base
        for v in range(len(parent)):
            if level[v] != last:
                continue
            if spins[v]:
                wm *= z_at_level(last)
            else:
                wn *= leaf_factor ** fanout[v]
        w_n.append(wn)
        w_m.append(wm)
    tn, tm = sum(w_n), sum(w_m)
    return max(abs(a / tn - b / tm) for a, b in zip(w_n, w_m))

