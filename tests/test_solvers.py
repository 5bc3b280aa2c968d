"""Homogeneous and alternating boundary-law solvers plus threshold activities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hctree import solvers
from hctree.core import (
    ConvergenceError,
    DomainError,
    LawKind,
    ModelParams,
    recursion_derivative,
    recursion_map,
)
from hctree.solvers import (
    CriticalValues,
    _solve_pair_generic,
    asymptotic_bound,
    critical_lambda,
    critical_values,
    discriminant_k3,
    k3_cubic_root,
    lambda_star,
    nonextremal_bound,
    solve_translation_invariant,
    solve_two_periodic,
    solve_two_periodic_k2_closed,
    solve_two_periodic_k3_closed,
)

# homogeneous fixed points, computed once by bisection at tol 1e-15 and frozen
TI_FIXED_POINTS = {
    (2, 1.0): 0.46557123187676803,
    (2, 3.0): 0.2879021759397297,
    (2, 4.0): 0.25,
    (2, 5.0): 0.22326865972484233,
    (2, 30.0): 0.082628301983685098,
    (3, 1.5): 0.31408568692560583,
    (3, 2.0): 0.27184450634603818,
    (3, 3.0): 0.21936602245740599,
    (4, 1.0): 0.32471795724474603,
    (6, 10.0): 0.059878020095315658,
    (10, 0.5): 0.27533071484716096,
}

K2_PAIRS = {
    5.0: (0.07639320225002103, 0.52360679774997897),
    6.0: (0.044658198738520451, 0.62200846792814622),
    10.0: (0.012701665379258311, 0.78729833462074169),
}

K3_PAIRS = {
    2.0: (0.097955780305940334, 0.58465922640110809),
    3.0: (0.025201510030802877, 0.80360407809072038),
}


class TestCriticalLambda:
    def test_k2_exact(self):
        assert critical_lambda(2) == pytest.approx(4.0, rel=1e-14)

    def test_k3_exact(self):
        assert critical_lambda(3) == pytest.approx(27.0 / 16.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_formula(self, k):
        expected = (k / (k - 1)) ** k / (k - 1)
        assert critical_lambda(k) == pytest.approx(expected, rel=1e-14)

    def test_rejects_small_k(self):
        with pytest.raises(DomainError):
            critical_lambda(1)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_marginal_stability_at_threshold(self, k):
        # at the critical activity the fixed point sits exactly on the
        # |derivative| = 1 boundary of the recursion
        p = ModelParams(k, critical_lambda(k))
        z = solve_translation_invariant(p)
        assert abs(recursion_derivative(p, z)) == pytest.approx(1.0, abs=1e-8)


class TestTranslationInvariant:
    @pytest.mark.parametrize("key,expected", sorted(TI_FIXED_POINTS.items()))
    def test_frozen_values(self, key, expected):
        k, lam = key
        z = solve_translation_invariant(ModelParams(k, lam))
        assert z == pytest.approx(expected, rel=1e-12)

    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_is_fixed_point(self, k, lam):
        p = ModelParams(k, lam)
        z = solve_translation_invariant(p)
        assert 0.0 < z < 1.0
        assert recursion_map(p, z) == pytest.approx(z, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            solve_translation_invariant(ModelParams(2, 5.0), tol)


class TestPairClosedForms:
    @pytest.mark.parametrize("lam,expected", sorted(K2_PAIRS.items()))
    def test_k2_frozen(self, lam, expected):
        z1, z2 = solve_two_periodic_k2_closed(lam)
        assert z1 == pytest.approx(expected[0], rel=1e-12)
        assert z2 == pytest.approx(expected[1], rel=1e-12)

    @pytest.mark.parametrize("lam", [4.5, 5.0, 10.0, 100.0])
    def test_k2_product_and_sum_identities(self, lam):
        z1, z2 = solve_two_periodic_k2_closed(lam)
        assert lam * lam * z1 * z2 == pytest.approx(1.0, abs=1e-12)
        assert lam * (z1 + z2) == pytest.approx(lam - 2.0, abs=1e-12)

    @given(st.floats(min_value=4.0 + 1e-9, max_value=1e6))
    @settings(max_examples=80)
    def test_k2_identities_wide_range(self, lam):
        z1, z2 = solve_two_periodic_k2_closed(lam)
        assert lam * lam * z1 * z2 == pytest.approx(1.0, rel=1e-10)
        assert lam * (z1 + z2) == pytest.approx(lam - 2.0, rel=1e-10)

    def test_k2_rejects_subcritical(self):
        with pytest.raises(DomainError):
            solve_two_periodic_k2_closed(3.9)

    def test_cubic_root_frozen(self):
        assert k3_cubic_root(2.0) == pytest.approx(1.2971565081774244, rel=1e-12)
        assert k3_cubic_root(3.0) == pytest.approx(1.2228950301592488, rel=1e-12)
        assert k3_cubic_root(27.0 / 16.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("lam", [1.6875, 1.7, 2.0, 3.0, 10.0, 50.0, 100.0])
    def test_cubic_root_residual(self, lam):
        a = k3_cubic_root(lam)
        assert a ** 3 - a ** 2 - 1.0 / lam == pytest.approx(0.0, abs=1e-12)

    def test_discriminant_zero_at_threshold(self):
        assert discriminant_k3(27.0 / 16.0) == pytest.approx(0.0, abs=1e-8)

    def test_discriminant_signs(self):
        assert discriminant_k3(1.6) < 0
        assert discriminant_k3(1.7) > 0
        assert discriminant_k3(10.0) > 0

    @pytest.mark.parametrize("lam,expected", sorted(K3_PAIRS.items()))
    def test_k3_frozen(self, lam, expected):
        z1, z2 = solve_two_periodic_k3_closed(lam)
        assert z1 == pytest.approx(expected[0], rel=1e-12)
        assert z2 == pytest.approx(expected[1], rel=1e-12)

    @pytest.mark.parametrize("lam", [1.7, 2.0, 3.0, 10.0, 100.0])
    def test_k3_pair_is_two_cycle(self, lam):
        p = ModelParams(3, lam)
        z1, z2 = solve_two_periodic_k3_closed(lam)
        assert recursion_map(p, z1) == pytest.approx(z2, abs=1e-9)
        assert recursion_map(p, z2) == pytest.approx(z1, abs=1e-9)

    @pytest.mark.parametrize("lam", [1.8, 2.5, 4.0, 20.0])
    def test_k3_generic_solver_matches_closed_form(self, lam):
        p = ModelParams(3, lam)
        z_fix = solve_translation_invariant(p)
        got = _solve_pair_generic(p, z_fix, 1e-13)
        want = solve_two_periodic_k3_closed(lam)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)


class TestSolveTwoPeriodic:
    @pytest.mark.parametrize("k,lam", [(2, 1.0), (2, 2.0), (2, 3.999), (3, 1.0), (5, 0.5)])
    def test_unique_below_threshold(self, k, lam):
        rep = solve_two_periodic(ModelParams(k, lam))
        assert rep.system_solution_count == 1
        assert len(rep.solutions) == 1
        assert rep.solutions[0].kind is LawKind.TRANSLATION_INVARIANT
        assert not rep.degenerate_double_root

    @pytest.mark.parametrize("k,lam", [(2, 4.5), (2, 5.0), (2, 100.0), (3, 2.0), (4, 1.1), (6, 10.0)])
    def test_three_above_threshold(self, k, lam):
        rep = solve_two_periodic(ModelParams(k, lam))
        assert rep.system_solution_count == 3
        kinds = [law.kind for law in rep.solutions]
        assert kinds.count(LawKind.TRANSLATION_INVARIANT) == 1
        assert kinds.count(LawKind.TWO_PERIODIC) == 1
        assert max(rep.residuals) < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_degenerate_at_threshold(self, k):
        rep = solve_two_periodic(ModelParams(k, critical_lambda(k)))
        assert rep.degenerate_double_root
        assert rep.system_solution_count == 1

    def test_pair_brackets_fixed_point(self):
        rep = solve_two_periodic(ModelParams(2, 6.0))
        ti = next(s for s in rep.solutions if s.kind is LawKind.TRANSLATION_INVARIANT)
        pair = next(s for s in rep.solutions if s.kind is LawKind.TWO_PERIODIC)
        assert pair.values[0] < ti.values[0] < pair.values[1]

    def test_report_lambda_critical(self):
        rep = solve_two_periodic(ModelParams(2, 1.0))
        assert rep.lambda_critical == pytest.approx(4.0, rel=1e-14)


# threshold activities frozen after independent bisection of the defining root
CRITICAL_TABLE = {
    2: (0.43015970900194673, 7.1591912469828776, 28.14213562373095),
    3: (0.57827771092574405, 3.7712102212223052, 18.093266739736606),
    4: (0.65893882922062095, 2.7454072670083976, 16.0),
    10: (0.82761753050473532, 1.3815499898983425, 20.700170609265581),
}


class TestThresholdActivities:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_t_root_defines_lambda_star(self, k):
        from hctree.solvers import _t_root

        t = _t_root(k)
        assert 0.0 < t < 1.0
        residual = t ** (k + 1) - k * t ** 2 + (2 * k - 1) * t - (k - 1)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert lambda_star(k) == pytest.approx((1 - t) / t ** (k + 1), rel=1e-12)

    @pytest.mark.parametrize("k,row", sorted(CRITICAL_TABLE.items()))
    def test_frozen_values(self, k, row):
        t_star, lam_star, bound = row
        from hctree.solvers import _t_root

        assert _t_root(k) == pytest.approx(t_star, rel=1e-12)
        assert lambda_star(k) == pytest.approx(lam_star, rel=1e-12)
        assert nonextremal_bound(k) == pytest.approx(bound, rel=1e-12)

    def test_nonextremal_bound_formula(self):
        # (sqrt(k)/(sqrt(k)-1))**k / (sqrt(k)-1), exact at k=4: 2**4 = 16
        assert nonextremal_bound(4) == pytest.approx(16.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_ordering(self, k):
        cv = critical_values(k)
        assert cv.lambda_cr < cv.lambda_star < cv.lambda_nonextremal

    def test_critical_values_record(self):
        cv = critical_values(3)
        assert isinstance(cv, CriticalValues)
        assert cv.k == 3
        assert cv.lambda_cr == pytest.approx(27.0 / 16.0, rel=1e-14)
        assert cv.t_star == pytest.approx(CRITICAL_TABLE[3][0], rel=1e-12)

    def test_asymptotic_bound_positive_and_growing(self):
        b3 = asymptotic_bound(3, 0.1)
        b100 = asymptotic_bound(100, 0.1)
        assert 0 < b3 < b100

    def test_asymptotic_bound_domain(self):
        with pytest.raises(DomainError):
            asymptotic_bound(2, 0.1)
        with pytest.raises(DomainError):
            asymptotic_bound(3, 0.0)
        with pytest.raises(DomainError):
            asymptotic_bound(3, -0.5)

    def test_asymptotic_bound_value(self):
        eps = 0.25
        k = 5
        expected = math.exp(1 + eps) * math.log(k) * (math.log(k) + math.log(math.log(k)) + 1 + eps)
        assert asymptotic_bound(k, eps) == pytest.approx(expected, rel=1e-14)


# Reference bisections: the solvers' loops with every step through the checked
# recursion_map. The solvers evaluate the map inline; the bits must not move.


def reference_translation_invariant(params, tol=1e-12):
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g = recursion_map(params, mid) - mid
        if g == 0.0:
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    residual = abs(recursion_map(params, z) - z)
    if residual > tol:
        raise ConvergenceError("translation-invariant bisection stalled",
                               bracket=(lo, hi), residual=residual, tol=tol)
    return z


def reference_pair_generic(params, z_fix, tol):
    lo = 0.0
    hi = z_fix - 1e-9
    if hi <= 0.0:
        raise ConvergenceError("fixed point too close to zero to bracket a pair", z_fix=z_fix)

    def h(z):
        return recursion_map(params, recursion_map(params, z)) - z

    h_hi = h(hi)
    if h_hi >= 0.0:
        raise ConvergenceError("no sign change for the two-cycle bracket; pair not found",
                               bracket=(lo, hi), h_hi=h_hi, lam=params.lam)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    z1 = 0.5 * (lo + hi)
    z2 = recursion_map(params, z1)
    residual = max(abs(z1 - recursion_map(params, z2)), abs(z2 - recursion_map(params, z1)))
    if residual > tol:
        raise ConvergenceError("two-cycle bisection stalled", pair=(z1, z2),
                               residual=residual, tol=tol)
    return z1, z2


def outcome(fn, *args):
    """fn's result, or the type, arguments and diagnostics of what it raised."""
    try:
        return fn(*args)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), exc.args, getattr(exc, "diagnostics", None)


def report_bits(report):
    return ([(law.kind, law.values) for law in report.solutions], report.residuals,
            report.system_solution_count, report.degenerate_double_root)


def bisection_activities(k):
    """A log grid across every regime plus each threshold and its float neighbours."""
    cv = critical_values(k)
    grid = [10.0 ** (-2.0 + 6.0 * j / 299) for j in range(300)]
    for lam in (cv.lambda_cr, cv.lambda_star, cv.lambda_nonextremal):
        grid += [math.nextafter(lam, 0.0), lam, math.nextafter(lam, math.inf),
                 lam * (1.0 + 1e-9), lam * (1.0 + 1e-6)]
    return grid


class TestInlinedBisection:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_same_bits_as_checked_steps(self, k, monkeypatch):
        for lam in bisection_activities(k):
            params = ModelParams(k, lam)
            with monkeypatch.context() as patched:
                patched.setattr(solvers, "solve_translation_invariant",
                                reference_translation_invariant)
                patched.setattr(solvers, "_solve_pair_generic", reference_pair_generic)
                expected = outcome(solve_two_periodic, params)
            got = outcome(solve_two_periodic, params)
            if isinstance(expected, tuple):
                assert got == expected, lam
            else:
                assert report_bits(got) == report_bits(expected), lam

    def test_underflowing_inner_value_raises_as_before(self):
        # f(0.5) underflows to 0 at this activity; the outer step must refuse it
        params = ModelParams(4, 1e300)
        expected = outcome(reference_pair_generic, params, 0.5, 1e-12)
        assert expected[0] is DomainError
        assert outcome(_solve_pair_generic, params, 0.5, 1e-12) == expected
