"""Exact fixed-point counts for the weak_scan workload, by elimination.

    python3 bench/exact_weak_counts.py     (needs sympy; takes a few seconds)

On each invariant plane the weak-periodic fixed-point equations reduce to
two equations in two positive unknowns. For i = 1 they are rational; for
i = 2 the substitution z = w**2 makes them so. Clearing the (positive)
denominators leaves two polynomials; their resultant in the second unknown
has the first unknown's values as roots. Real roots are isolated exactly,
each is paired with the positive roots of the first polynomial, and points
that also solve the second are counted. The benchmark checks `hctree weak`
against the counts printed here; it never runs this script. Nothing here
uses `hctree`.
"""

import sympy as sp

# (k, i, plane, activity): the weak_scan points, then the sweep's grid
POINTS = [
    (2, 1, "I2", "5"), (2, 1, "I2", "4.001"), (2, 1, "I2", "4"), (3, 1, "I2", "3"),
    (4, 2, "I2", "2"), (6, 1, "I4", "10"), (6, 1, "I4", "70"), (2, 1, "I3", "3"),
    (2, 1, "I2", "3"), (2, 1, "I2", "4.5"), (2, 1, "I2", "6"),
]


def equations(k, i, lam, plane):
    """Polynomials in (x, y) whose positive common roots are the fixed
    points (a, b) = (x**i, y**i) on the plane."""
    x, y = sp.symbols("x y", positive=True)
    lam = sp.Rational(lam)
    a, b = x**i, y**i
    root = {a: x ** (i - 1), b: y ** (i - 1)}  # z**(1 - 1/i) for z in {a, b}

    def comp(za, zb, zc):
        base = 1 + lam * za
        mid = base ** sp.Rational(k, i) + lam * root[zb]
        return base**k / (mid**i * (1 + lam * zc) ** (k - i))

    # W on the plane, in the component order of the package's update
    first, second = {
        "I2": (comp(a, b, b), comp(b, a, a)),  # (a, b, a, b)
        "I3": (comp(b, b, a), comp(a, a, b)),  # (a, a, b, b)
        "I4": (comp(b, a, b), comp(a, b, a)),  # (a, b, b, a)
    }[plane]
    polys = [sp.Poly(sp.numer(sp.together(z - w)), x, y) for z, w in ((a, first), (b, second))]
    return polys, x, y


def count(k, i, lam, plane):
    (p1, p2), x, y = equations(k, i, lam, plane)
    resultant = sp.Poly(sp.resultant(p1.as_expr(), p2.as_expr(), y), x)
    found = set()
    for xr in sp.Poly(sp.sqf_part(resultant.as_expr()), x).real_roots():
        if xr <= 0:
            continue
        xv = sp.N(xr, 60)
        for yv in sp.Poly(p1.as_expr().subs(x, xv), y).nroots(n=50, maxsteps=500):
            if abs(sp.im(yv)) > 1e-30 or sp.re(yv) <= 0:
                continue
            if abs(p2.as_expr().subs({x: xv, y: sp.re(yv)})) < 1e-25:
                found.add((round(float(xv), 9), round(float(sp.re(yv)), 9)))
    return len(found)


if __name__ == "__main__":
    for k, i, plane, lam in POINTS:
        print(f"k={k} i={i} {plane} lambda={lam}: {count(k, i, lam, plane)} fixed points")
