"""The weak-periodic solver against checks that share nothing with it.

Counts come from resultant elimination in bench/exact_weak_counts.py
(sympy), loaded here read-only. Where elimination is too slow (large k) or
does not apply (i = k+1, where k/i is not an integer), every reported point
is polished by mpmath's findroot at 50 digits on the plane equations written
out below, and the polished roots must be distinct and match the floats.
"""

import importlib.util
from pathlib import Path

import pytest

from hctree.cli import main
from hctree.weakperiodic import WeakPeriodicParams, solve_weak_periodic

pytest.importorskip("sympy")
import mpmath  # noqa: E402  (ships with sympy)

_SPEC = importlib.util.spec_from_file_location(
    "exact_weak_counts", Path(__file__).resolve().parents[1] / "bench" / "exact_weak_counts.py")
exact_weak_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact_weak_counts)

# (k, i, plane, activity as a decimal string)
RESULTANT_GRID = [
    *((2, 1, "I2", lam) for lam in ("3", "3.9", "4", "4.0000001", "4.001", "4.5", "5", "6", "10")),
    *((3, 1, "I2", lam) for lam in ("1.5", "1.7", "3", "10")),
    *((2, 2, "I2", lam) for lam in ("3", "6")),
    *((3, 1, "I3", lam) for lam in ("3", "20")),
    *((6, 1, "I4", lam) for lam in ("5", "5.8", "10", "63", "70")),
]


@pytest.mark.parametrize("k,i,plane,lam", RESULTANT_GRID)
def test_count_equals_resultant_count(k, i, plane, lam):
    rep = solve_weak_periodic(WeakPeriodicParams(k, i, float(lam)), plane)
    assert rep.count == exact_weak_counts.count(k, i, lam, plane)
    assert rep.non_ti_count == rep.count - 1


def plane_equations(k, i, lam, plane):
    """The fixed-point equations of W restricted to the plane, in mpmath."""
    lam = mpmath.mpf(lam)

    def component(za, zb, zc):
        base = 1 + lam * za
        middle = base ** (mpmath.mpf(k) / i) + lam * zb ** (1 - mpmath.mpf(1) / i)
        return base ** k / (middle ** i * (1 + lam * zc) ** (k - i))

    return {
        "I2": lambda a, b: (component(a, b, b) - a, component(b, a, a) - b),  # (a, b, a, b)
        "I3": lambda a, b: (component(b, b, a) - a, component(a, a, b) - b),  # (a, a, b, b)
        "I4": lambda a, b: (component(b, a, b) - a, component(a, b, a) - b),  # (a, b, b, a)
    }[plane]


def confirm_with_mpmath(k, i, lam, plane, rep):
    second = 2 if plane == "I3" else 1
    with mpmath.workdps(50):
        equations = plane_equations(k, i, lam, plane)
        roots = []
        for fp in rep.fixed_points:
            a, b = fp.values[0], fp.values[second]
            root = mpmath.findroot(equations, (mpmath.mpf(a), mpmath.mpf(b)))
            assert max(abs(e) for e in equations(*root)) < mpmath.mpf(10) ** -40
            for got, exact in ((a, root[0]), (b, root[1])):
                assert abs(got - exact) <= 1e-12 * exact
            roots.append(root)
        for n, r in enumerate(roots):
            for s in roots[:n]:
                assert max(abs(r[0] - s[0]), abs(r[1] - s[1])) > 1e-20


# The first plane at i = 1 with (1+lam)**k beyond 1e12: one point of the pair
# lies near (1+lam)**-k, where a Newton multistart with a (1e-12, 1e9) box
# reported only the constant point.
@pytest.mark.parametrize("k,lam", [(7, 70.0), (10, 20.0), (4, 1000.0)])
def test_small_coordinate_pairs_are_found(k, lam):
    rep = solve_weak_periodic(WeakPeriodicParams(k, 1, lam), "I2")
    assert rep.count == 3
    assert min(rep.fixed_points[0].values) < 1e-11
    confirm_with_mpmath(k, 1, lam, "I2", rep)


@pytest.mark.parametrize("argv", [
    ["weak", "-k", "7", "-l", "70", "--set", "I2"],
    ["weak", "-k", "10", "-l", "20"],
    ["weak", "-k", "4", "-l", "1000"],
])
def test_cli_reports_the_small_coordinate_pairs(argv, capsys):
    assert main(argv) == 0
    assert "fixed points: 3  (non-constant: 2)" in capsys.readouterr().out


# At i = k+1 the exponent k - i is -1 and the solver uses its substitution;
# the counts per activity 0.5, 1, 2, 3, 5, 8, 13, 20, 40, 70 are those the
# Newton multistart reported.
TOP_I_ACTIVITIES = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 40.0, 70.0)
TOP_I_COUNTS = {
    (2, "I2"): "1111333333", (2, "I3"): "1111111111", (2, "I4"): "1111111111",
    (3, "I2"): "1133333333", (3, "I3"): "1131111111", (3, "I4"): "1111111111",
    (4, "I2"): "1133333333", (4, "I3"): "1111111111", (4, "I4"): "1111111111",
    (5, "I2"): "1333333333", (5, "I3"): "1311111111", (5, "I4"): "1111111111",
}


@pytest.mark.parametrize("k,plane", list(TOP_I_COUNTS))
def test_top_generator_count_matches_newton_and_mpmath(k, plane):
    for lam, count in zip(TOP_I_ACTIVITIES, TOP_I_COUNTS[k, plane]):
        rep = solve_weak_periodic(WeakPeriodicParams(k, k + 1, lam), plane)
        assert rep.count == int(count), lam
        confirm_with_mpmath(k, k + 1, lam, plane, rep)
