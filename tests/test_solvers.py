"""Homogeneous and alternating boundary-law solvers plus threshold activities."""

import argparse
import math
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hctree import cli, solvers
from hctree.core import (
    ConvergenceError,
    DomainError,
    LawKind,
    ModelParams,
    _check_positive,
    recursion_map,
)
from hctree.extremality import classify
from hctree.solvers import (
    CriticalValues,
    _solve_pair,
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
        # |f'(z)| = k*lam*(1 + lam*z)**-(k+1) = 1 boundary of the recursion
        lam = critical_lambda(k)
        z = solve_translation_invariant(ModelParams(k, lam))
        assert k * lam * (1.0 + lam * z) ** -(k + 1) == pytest.approx(1.0, abs=1e-8)


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

    def test_k3_large_value_not_above_1(self):
        # the larger root t**3 of the quadratic rounded above 1 at 56 of these
        # activities (391361451.34324354 among them); z2 = f(z1) cannot
        lams = np.geomspace(1.01 * 27.0 / 16.0, 1e100, 20_000).tolist()
        assert max(solve_two_periodic_k3_closed(lam)[1] for lam in lams) <= 1.0
        assert solve_two_periodic_k3_closed(391361451.34324354)[1] <= 1.0

    @pytest.mark.parametrize("lam", [1e155, 1e160, 4e161])
    def test_k2_pair_past_the_overflow_of_lam_squared(self, lam):
        # lam*(lam-4) overflows from about 1.3e154; the small value 1/lam**2
        # is subnormal here but still a float
        z1, z2 = solve_two_periodic_k2_closed(lam)
        assert z1 == pytest.approx(lam ** -2, rel=1e-2) and z2 == 1.0

    @pytest.mark.parametrize("closed,lam", [
        (solve_two_periodic_k2_closed, 1e162), (solve_two_periodic_k2_closed, 1e300),
        (solve_two_periodic_k2_closed, sys.float_info.max),
        (solve_two_periodic_k3_closed, 1e150), (solve_two_periodic_k3_closed, 1e300),
        (solve_two_periodic_k3_closed, sys.float_info.max),
    ])
    def test_closed_pair_below_the_float_range_raises(self, closed, lam):
        with pytest.raises(ConvergenceError) as err:
            closed(lam)
        assert err.value.args == ("two-cycle below the smallest positive float; pair not found",)
        assert err.value.diagnostics == {"lam": lam}

    @pytest.mark.parametrize("lam", [1.8, 2.5, 4.0, 20.0])
    def test_k3_generic_solver_matches_closed_form(self, lam):
        p = ModelParams(3, lam)
        z_fix = solve_translation_invariant(p)
        got = _solve_pair_generic(3, lam, z_fix)
        want = solve_two_periodic_k3_closed(lam)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9)


class TestSolvePair:
    """The one entry point to the pair: closed forms for k=2, 3, the probe loop above."""

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_ascending_and_a_two_cycle(self, k):
        for lam in (critical_lambda(k) * 1.01, 5.0, 100.0):
            z_fix = solve_translation_invariant(ModelParams(k, lam))
            z1, z2, residual = _solve_pair(k, lam, z_fix, 1e-12)
            assert 0.0 < z1 < z_fix < z2 < 1.0
            assert residual <= 1e-12
            # z2 = f(z1) in the pow form, or in the log form of the Newton pair
            f_z1 = ((1.0 + lam * z1) ** -k, math.exp(-k * math.log1p(lam * z1)))
            assert residual == max(abs(z1 - (1.0 + lam * z2) ** -k),
                                   min(abs(z2 - f) for f in f_z1))

    # k >= 4: the closing pass leaves most pairs with residual 0, but not these
    @pytest.mark.parametrize("k,lam", [(2, 5.0), (3, 3.0), (4, 1.1), (7, 0.8)])
    def test_pair_gated_at_tol(self, k, lam):
        # no 1e-9 floor: a tol below the pair's residual refuses it, with one
        # message for the closed forms and the probe loop
        z_fix = solve_translation_invariant(ModelParams(k, lam))
        with pytest.raises(ConvergenceError) as err:
            _solve_pair(k, lam, z_fix, 1e-300)
        assert err.value.args == ("alternating pair residual above tolerance",)
        assert sorted(err.value.diagnostics) == ["pair", "residual", "tol"]
        assert err.value.diagnostics["tol"] == 1e-300
        assert err.value.diagnostics["residual"] > 1e-300

    def test_has_pair_is_above_the_critical_activity_off_its_window(self):
        lam_cr = critical_lambda(4)
        assert not solvers._has_pair(lam_cr, lam_cr)
        assert not solvers._has_pair(lam_cr * (1.0 + 1e-13), lam_cr)
        assert not solvers._has_pair(math.nextafter(lam_cr, 0.0), lam_cr)
        assert solvers._has_pair(lam_cr * (1.0 + 1e-11), lam_cr)


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

    @pytest.mark.parametrize("lam", [2000.0, 1e12])
    def test_pair_below_the_float_range_raises(self, lam):
        # at k=100 the probe loop finds u = z1**(1/k) next to 1/(1 + lam), but
        # u**100 underflows to 0: it must stop with ConvergenceError, not pass
        # z1 = 0 on to the map
        u = 1.0 / (1.0 + lam)
        assert outcome(solve_two_periodic, ModelParams(100, lam)) == (
            ConvergenceError, ("two-cycle below the smallest positive float; pair not found",),
            {"bracket": (u, math.nextafter(u, 1.0)), "lam": lam})


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
        t = critical_values(k).t_star
        assert 0.0 < t < 1.0
        residual = t ** (k + 1) - k * t ** 2 + (2 * k - 1) * t - (k - 1)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert lambda_star(k) == pytest.approx((1 - t) / t ** (k + 1), rel=1e-12)

    @pytest.mark.parametrize("k,row", sorted(CRITICAL_TABLE.items()))
    def test_frozen_values(self, k, row):
        t_star, lam_star, bound = row
        assert critical_values(k).t_star == pytest.approx(t_star, rel=1e-12)
        assert lambda_star(k) == pytest.approx(lam_star, rel=1e-12)
        assert nonextremal_bound(k) == pytest.approx(bound, rel=1e-12)

    def test_nonextremal_bound_formula(self):
        # (sqrt(k)/(sqrt(k)-1))**k / (sqrt(k)-1), exact at k=4: 2**4 = 16
        assert nonextremal_bound(4) == pytest.approx(16.0, rel=1e-14)

    def test_nonextremal_bound_past_the_float_range_is_inf(self):
        # 50-digit values: 1.79717e308 at k = 512,447 and 1.79843e308 at 512,448
        assert math.isfinite(nonextremal_bound(512_447))
        assert nonextremal_bound(512_448) == nonextremal_bound(10**6) == math.inf

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


def _threshold_reference(k: int, mpmath) -> tuple:
    """Every value of critical_values(k), s_pm(k) and lambda_pm(k) from the
    paper's closed forms at the working precision, not from the map lam(s)."""
    def poly(t):
        return t ** (k + 1) - k * t * t + (2 * k - 1) * t - (k - 1)

    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(mpmath.mp.prec):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if poly(mid) < 0 else (lo, mid)
    t, r = (lo + hi) / 2, mpmath.sqrt(k)
    values = [(mpmath.mpf(k) / (k - 1)) ** k / (k - 1), t, (1 - t) / t ** (k + 1),
              (r / (r - 1)) ** k / (r - 1)]
    if k >= 6:
        d = mpmath.sqrt(mpmath.mpf(k) ** 2 - 6 * k + 1)
        roots = ((k - 3 - d) / 4, (k - 3 + d) / 4)
        values += [*roots, *((1 + s) ** k * s for s in roots)]
    return tuple(values)


class TestThresholdsCorrectlyRounded:
    @pytest.mark.parametrize("k", [*range(2, 11), 30, 100, 1000, 10**6, 10**12])
    def test_within_half_an_ulp_of_50_digits(self, k):
        mpmath = pytest.importorskip("mpmath")
        cv = critical_values(k)
        got = [cv.lambda_cr, cv.t_star, cv.lambda_star, cv.lambda_nonextremal]
        if k >= 6:
            got += [*solvers.s_pm(k), *solvers.lambda_pm(k)]
        with mpmath.workdps(50):
            want = _threshold_reference(k, mpmath)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if w > sys.float_info.max:
                    assert g == math.inf
                else:
                    assert abs(mpmath.mpf(g) - w) <= mpmath.mpf(math.ulp(g)) / 2

    def test_k_is_checked_before_the_cache(self):
        assert critical_lambda(2) == 4.0
        for k in (True, 2.0):
            for threshold in (critical_lambda, critical_values, lambda_star, nonextremal_bound):
                with pytest.raises(DomainError):
                    threshold(k)
        with pytest.raises(DomainError):
            solvers.s_pm(6.0)

    def test_computed_once_per_k(self):
        k = 4_321  # no other test asks for this k
        misses = solvers._thresholds.cache_info().misses
        for threshold in (critical_lambda, critical_values, lambda_star, nonextremal_bound,
                          solvers.s_pm, solvers.lambda_pm) * 3:
            threshold(k)
        assert solvers._thresholds.cache_info().misses == misses + 1

    def test_cache_holds_k_2_to_301(self):
        # the default of 128 entries missed on every call of two passes
        # through these 300 k
        assert solvers._thresholds.cache_info().maxsize == 1 << 12
        for k in range(2, 302):
            critical_lambda(k)
        hits = solvers._thresholds.cache_info().hits
        for k in range(2, 302):
            critical_lambda(k)
        assert solvers._thresholds.cache_info().hits == hits + 300

    def test_k_past_the_float_range_raises_overflow(self):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            critical_lambda(10**400)


class TestTinyRoots:
    """Roots far below 2**-200 of the bracket (0, 1), checked against
    fixed-point iterations that use no bracket."""

    def test_invariant_root_near_1e_minus_67(self):
        # z = (1 + lam*z)**-k read as log z = log(expm1(-log(z)/k)) - log(lam),
        # a contraction with factor about 1/k
        k, lam, u = 2, 1e100, -1.0
        for _ in range(200):
            u = math.log(math.expm1(-u / k)) - math.log(lam)
        z = solve_translation_invariant(ModelParams(k, lam))
        assert z == pytest.approx(math.exp(u), rel=1e-12)
        assert z == pytest.approx(2.15443469003188e-67, rel=1e-12)

    def test_generic_pair_value_near_1e_minus_80(self):
        # the pair attracts the map applied twice here
        k, lam, z1 = 10, 1e8, 0.0
        for _ in range(10):
            z1 = (1.0 + lam * (1.0 + lam * z1) ** -k) ** -k
        report = solve_two_periodic(ModelParams(k, lam))
        assert report.solutions[-1].values[0] == pytest.approx(z1, rel=1e-12)
        assert z1 == pytest.approx(9.99999900000006e-81, rel=1e-12)

    def test_generic_pair_when_the_fixed_point_is_near_zero(self):
        # z_fix is 2.5e-10 here; the bracket (0, z_fix**(1/k)) needs no margin
        k, lam = 4, 1e12
        report = solve_two_periodic(ModelParams(k, lam))
        z1, z2 = report.solutions[-1].values
        assert report.solutions[0].values[0] < 1e-9
        assert z1 == pytest.approx((1.0 + lam) ** -k, rel=1e-12)
        assert z1 == pytest.approx(1e-48, rel=1e-11)
        assert z2 == pytest.approx(1.0, rel=1e-12)


# Checked-step references. The fixed point must keep the bits of a plain
# bisection through the checked recursion_map; the probe loop and the pair's
# Newton below are the solvers' loops with every map evaluation through a
# checked step. The solvers evaluate the map inline; the bits must not move.


def reference_translation_invariant(params, tol=solvers._DEFAULT_TOL):
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi = 0.0, 1.0
    for _ in range(1100):
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
    if z == 0.0:  # the fixed point is below every float
        raise ConvergenceError("fixed point below the smallest positive float", lam=params.lam,
                               bracket=(lo, hi))
    residual = abs(recursion_map(params, z) - z)
    if residual > tol:
        raise ConvergenceError("translation-invariant bisection stalled",
                               bracket=(lo, hi), residual=residual, tol=tol)
    return z


def reference_probes(h, lo, hi, h_lo, h_hi, zero_is_root, probes):
    """The solvers' probe loop on (lo, hi), with h(lo) = h_lo < 0 and h(hi) =
    h_hi > 0 known: Illinois (regula falsi that halves the stored value of an
    end kept twice), and a midpoint probe after three probes in a row that kept
    more than half of the bracket. Returns the adjacent floats (lo, hi) it
    stops at, or (mid, mid) where h(mid) is 0 and zero_is_root. Appends its
    probe count to probes.

    The fixed point's g = f - id is -h here: the secant point, the halved
    values and the sign rules are the same bits under negation."""
    moved, slow, count = 0, 0, 0
    for _ in range(solvers._MAX_PROBES):
        m = 0.5 * (lo + hi)
        if m == lo or m == hi:
            break
        count += 1
        c = hi - h_hi * (hi - lo) / (h_hi - h_lo)
        mid = c if slow < 3 and lo < c < hi else m
        value = h(mid)
        if value == 0.0 and zero_is_root:
            lo = hi = mid
            break
        if value > 0.0:
            if moved < 0:
                h_lo *= 0.5
            hi, h_hi, moved = mid, value, -1
            slow = slow + 1 if mid > m else 0
        else:
            if moved > 0:
                h_hi *= 0.5
            lo, h_lo, moved = mid, value, 1
            slow = slow + 1 if mid < m else 0
    probes.append(count)
    return lo, hi


def reference_fixed_point_floats(k, lam, tol):
    """_fixed_point through the checked bisection: its z and recursion_map's residual there."""
    params = ModelParams(k, lam)
    z = reference_translation_invariant(params, tol)
    return z, abs(recursion_map(params, z) - z)


class CountingFloat(float):
    """A float that counts the products it takes part in and the sums it is
    added to, for the work of _fixed_point on lam: each Newton step and each
    evaluation of the map multiplies by lam, and only the start from (0, 1)
    adds 1.0 to it."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.products = self.sums = 0
        return self

    def __mul__(self, other):
        self.products += 1
        return float(self) * other

    __rmul__ = __mul__

    def __radd__(self, other):
        self.sums += 1
        return other + float(self)


def reference_newton_start(k, lam, evaluations):
    """_fixed_point's Newton steps on psi(w) = w + k*log1p(lam*e**w) and the
    bracket it checks, g = f - id through the checked recursion_map (g(0) = 1):
    ("zero", z) where g(z) is 0, ("bracket", lo, hi, g(lo), g(hi)) where the
    bracket holds, else ("fallback",). Appends its map evaluations, Newton
    steps and bracket ends, to evaluations."""
    params = ModelParams(k, lam)

    def g(z):
        return (recursion_map(params, z) if z > 0.0 else 1.0) - z

    w = min(0.0, -k * (math.log(2.0) + 0.5 * math.log(lam)) / (1.0 + 0.5 * k))
    count = 0
    for _ in range(solvers._NEWTON_STEPS):
        count += 1
        t = lam * math.exp(w)
        step = (w + k * math.log1p(t)) / (1.0 + k * t / (1.0 + t))
        w -= step
        if step <= solvers._NEWTON_STOP:
            break
    z = math.exp(w)
    gz = g(z)
    count += 1
    if gz == 0.0:
        evaluations.append(count)
        return "zero", z
    d = (k + 8 - w) * sys.float_info.epsilon * z
    e = z + d if gz > 0.0 else z - d
    ge = gz
    if 0.0 < e < 1.0:
        ge = g(e)
        count += 1
    evaluations.append(count)
    lo, hi, g_lo, g_hi = (z, e, gz, ge) if gz > 0.0 else (e, z, ge, gz)
    if 0.0 < lo and hi < 1.0 and g_lo > 0.0 > g_hi:
        return "bracket", lo, hi, g_lo, g_hi
    return ("fallback",)


def reference_fixed_point(params, tol=solvers._DEFAULT_TOL, probes=None, newton=True):
    """_fixed_point's steps, each g through the checked recursion_map: the
    probes from Newton's bracket, or from (0, 1) where it does not hold or
    newton is False. Appends its map evaluations (Newton steps, bracket ends
    and probes) to probes."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    k, lam, counts = params.k, params.lam, []
    start = reference_newton_start(k, lam, counts) if newton else ("fallback",)
    if start[0] == "zero":
        lo = hi = start[1]
    else:
        lo, hi, g_lo, g_hi = (start[1:] if start[0] == "bracket"
                              else (0.0, 1.0, 1.0, (1.0 + lam) ** -k - 1.0))
        lo, hi = reference_probes(lambda z: z - recursion_map(params, z), lo, hi, -g_lo, -g_hi,
                                  True, counts)
    if probes is not None:
        probes.append(sum(counts))
    if lo == hi:
        return lo
    z = 0.5 * (lo + hi)
    if z == 0.0:  # the fixed point is below every float
        raise ConvergenceError("fixed point below the smallest positive float", lam=params.lam,
                               bracket=(lo, hi))
    residual = abs(recursion_map(params, z) - z)
    if residual > tol:
        raise ConvergenceError("translation-invariant bisection stalled",
                               bracket=(lo, hi), residual=residual, tol=tol)
    return z


def checked_log_map(k, lam):
    """f(z) = exp(-k*log1p(lam*z)), the pair's log form of the map, with
    recursion_map's argument check."""
    return lambda z: math.exp(-k * math.log1p(lam * _check_positive("z", z)))


def reference_newton(k, lam, steps):
    """The pair's Newton branch, each f through checked_log_map: (z1, z2), or
    None where it hands over. Appends its evaluations of f(f(.)) to steps."""
    f, params = checked_log_map(k, lam), ModelParams(k, lam)
    y, count, pair = -k * math.log1p(lam), 0, None
    for _ in range(solvers._NEWTON_STEPS):
        z = math.exp(y)
        t = lam * z
        if not t > 0.0:
            break
        count += 1
        s = lam * f(z)
        rho = k * k * t / (1.0 + t) * s / (1.0 + s)
        if not rho <= 0.5:
            break
        step = (y + k * math.log1p(s)) / (1.0 - rho)
        y -= step
        if abs(step) <= solvers._NEWTON_STOP:
            z1 = recursion_map(params, f(math.exp(y)))
            if z1 > 0.0:
                pair = z1, f(z1)
            break
    steps.append(count)
    return pair


def reference_deflated(k, lam, z_fix, probes, f=None):
    """The pair's probe loop on the deflated G, each step checked. Its closing
    pass and z2 take f, recursion_map as in the solvers unless given."""
    params = ModelParams(k, lam)
    f = f or (lambda z: recursion_map(params, z))

    def deflated(u):
        # G(u) = lam*u*v*sum(u**j * v**(k-1-j) for j < k) - 1, the sum as
        # v**(k-1) * (1 - r**k)/(1 - r) with r = u/v = 1 - d
        a = _check_positive("u", u) ** k
        v = 1.0 / (1.0 + lam * a)
        d = (v - u) / v
        if d >= 0.5:
            return lam * u * (v ** k - a) / d - 1.0
        q = -math.expm1(k * math.log1p(-d)) / d if d != 0.0 else k
        return lam * u * v ** k * q - 1.0

    # G(u_fix) = |f'(z_fix)| - 1
    lo, hi = reference_probes(deflated, 0.0, z_fix ** (1.0 / k), -1.0,
                              k * (lam * z_fix / (1.0 + lam * z_fix)) - 1.0, False, probes)
    z1 = (0.5 * (lo + hi)) ** k
    if z1 > 0.0:
        z1 = recursion_map(params, f(z1))
    if not z1 > 0.0:
        raise ConvergenceError("two-cycle below the smallest positive float; pair not found",
                               lam=lam, bracket=(lo, hi))
    return z1, f(z1)


def reference_pair_generic(k, lam, z_fix, evaluations=None):
    """_solve_pair_generic step by step: Newton, else the probe loop. Appends
    its evaluations, Newton steps plus any probes, to evaluations."""
    counts = []
    try:
        return reference_newton(k, lam, counts) or reference_deflated(k, lam, z_fix, counts)
    finally:
        if evaluations is not None:
            evaluations.append(sum(counts))


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
                patched.setattr(solvers, "_fixed_point", reference_fixed_point_floats)
                patched.setattr(solvers, "_solve_pair_generic", reference_pair_generic)
                expected = outcome(solve_two_periodic, params)
            got = outcome(solve_two_periodic, params)
            if isinstance(expected, tuple):
                assert got == expected, lam
            else:
                assert report_bits(got) == report_bits(expected), lam


# The bisection's outcome at each extreme activity, frozen: the fixed point
# (1.0 below lam = 1) and, above the critical activity, the diagnostics of the
# pair's error; every pair there is below the smallest positive float.
EXTREME_LAMS = [5e-324, 1e-320, 1e-300, 1e300, 1.7e308]
EXTREME_OUTCOMES = {
    (2, 1e300): (1e-200, {"lam": 1e300}),
    (4, 1e300): (1e-240, {"lam": 1e300, "bracket": (1e-300, 1.0000000000000002e-300)}),
    (100, 1e300): (9.329027117311518e-298,
                   {"lam": 1e300, "bracket": (1e-300, 1.0000000000000002e-300)}),
    (10**5, 1e300): (6.981658900452658e-303,
                     {"lam": 1e300, "bracket": (1e-300, 1.0000000000000002e-300)}),
    (2, 1.7e308): (3.2586225039732143e-206, {"lam": 1.7e308}),
    (4, 1.7e308): (2.603999298483454e-247,
                   {"lam": 1.7e308, "bracket": (5.882352941176467e-309, 5.88235294117647e-309)}),
    (100, 1.7e308): (6.621492260682252e-306,
                     {"lam": 1.7e308, "bracket": (5.882352941176467e-309, 5.88235294117647e-309)}),
    (10**5, 1.7e308): (4.2189658478064e-311,
                       {"lam": 1.7e308, "bracket": (5.882352941176467e-309, 5.88235294117647e-309)}),
}


class TestIllinoisProbes:
    """The probe loops keep the fixed point's bits and stay under their cap.
    The fixed point takes a few Newton steps and probes where the bisection
    took about 55 probes, and the pair a few Newton steps where it took about
    60."""

    def test_fixed_point_bits_equal_the_bisection(self):
        rng = random.Random(27)
        acts = [(round(10.0 ** rng.uniform(math.log10(2.0), 5.0)), 10.0 ** rng.uniform(-300, 300))
                for _ in range(20_000)]
        for k in (2, 3, 4, 5, 7, 10, 30, 100, 1000, 10**5):
            lam_cr = critical_lambda(k)
            acts += [(k, lam_cr * (1.0 + 10.0 ** -rng.uniform(0, 16))) for _ in range(100)]
        # the closed_form benchmark's activities, and each threshold's float neighbours
        for k in range(2, 11):
            cv = critical_values(k)
            thresholds = (cv.lambda_cr, cv.lambda_star, cv.lambda_nonextremal)
            acts += [(k, lam) for lam in (0.5, 1.0, 1.01 * cv.lambda_cr,
                                          2.0 * cv.lambda_nonextremal, 40.0)]
            acts += [(k, lam) for t in thresholds
                     for lam in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))]
        for k, lam in acts:
            assert (outcome(solvers._fixed_point, k, lam, 1e-12)
                    == outcome(reference_fixed_point_floats, k, lam, 1e-12)), (k, lam)

    @pytest.mark.parametrize("lam", EXTREME_LAMS)
    @pytest.mark.parametrize("k", [2, 4, 100, 10**5])
    def test_extreme_activities_below_the_cap_and_as_bisected(self, k, lam):
        # the probes from (0, 1), where the fixed point falls back to
        probes = []
        z_fix, diagnostics = EXTREME_OUTCOMES.get((k, lam), (1.0, None))
        assert reference_fixed_point(ModelParams(k, lam), probes=probes, newton=False) == z_fix
        assert solvers._fixed_point(k, lam, 1e-12)[0] == z_fix
        if diagnostics is None:
            report = solve_two_periodic(ModelParams(k, lam))
            assert report_bits(report) == ([(LawKind.TRANSLATION_INVARIANT, (1.0,))], (0.0,), 1,
                                           False)
        else:
            if k >= 4:
                assert (outcome(reference_pair_generic, k, lam, z_fix, probes)
                        == outcome(_solve_pair_generic, k, lam, z_fix))
            with pytest.raises(ConvergenceError) as err:
                solve_two_periodic(ModelParams(k, lam))
            assert err.value.args == ("two-cycle below the smallest positive float; pair not found",)
            assert err.value.diagnostics == diagnostics
        assert len(probes) == (2 if diagnostics and k >= 4 else 1)
        assert max(probes) < solvers._MAX_PROBES

    def test_few_probes_on_the_msw_sweep_grid(self):
        # the closed_form benchmark's 1000-point msw sweep at k = 7; the
        # bisection took 55 probes for the fixed point and about 60 a pair,
        # the fixed point's probes from (0, 1) a median of 14, and the pair's
        # probe loop alone 13 evaluations of the map
        k = 7
        lam_cr = critical_lambda(k)
        fixed, pair, newton, probes, fallbacks = [], [], [], [], 0
        for lam in cli._grid(0.1, 100.0, 1000, "log"):
            z_fix = reference_fixed_point(ModelParams(k, lam), probes=fixed)
            counted = CountingFloat(lam)
            got, residual = solvers._fixed_point(k, counted, 1e-12)
            # the solver's own work: one product with lam per Newton step and
            # per map evaluation, the residual's after the probes
            assert (got, counted.products - (residual > 0.0)) == (z_fix, fixed[-1]), lam
            fallbacks += counted.sums
            if solvers._has_pair(lam, lam_cr):
                assert (reference_pair_generic(k, lam, z_fix, pair)
                        == _solve_pair_generic(k, lam, z_fix))
                newton.append(reference_newton(k, lam, []) is not None)
                reference_deflated(k, lam, z_fix, probes)
        assert len(fixed) == 1000 and len(pair) > 700
        # Newton steps, the bracket's two ends and the probes
        assert statistics.median(fixed) <= 8
        assert fallbacks < 10
        # the probe loop alone, which still solves every pair next to lam_cr
        assert statistics.median(probes) <= 16
        # Newton steps plus any probes after a hand-over
        assert statistics.median(pair) <= 4
        assert sum(newton) >= 0.9 * len(newton)


class TestFixedPointNewton:
    """Where Newton's bracket does not hold, the probes start from (0, 1), and
    either way the fixed point ends where the bisection ends."""

    # below lam ~ eps/k the map rounds to 1 at z = 1, an exact zero of g that
    # Newton starts on; next to it z + d passes 1; from k = 10**12 the Newton
    # steps reach their cap far from the root; at k = 10**19 the bisection
    # stalls, and at 1.7e308 its z is below every float
    @pytest.mark.parametrize("k,lam,start", [
        (2, 5e-324, "zero"), (10**5, 5e-324, "zero"), (2, 1e-16, "fallback"),
        (100, 1e-17, "fallback"), (10**12, 1e300, "fallback"), (10**12, 1.7e308, "fallback"),
        (10**19, 1e300, "fallback"), (10**19, 1.7e308, "fallback")])
    def test_start_as_bisected(self, k, lam, start):
        assert reference_newton_start(k, lam, [])[0] == start
        want = outcome(reference_fixed_point_floats, k, lam, 1e-12)
        counted = CountingFloat(lam)
        assert outcome(solvers._fixed_point, k, counted, 1e-12) == want
        assert counted.sums == (start == "fallback")


# Outcomes of solve_two_periodic from the probe loop alone (before the pair's
# Newton branch), frozen at seeded activities with k in 10**3..10**5 (lam next
# to lam_cr, up to 2*lam_cr, and up to where z1 underflows), at k = 50,000 and
# 3*lam_cr, and at two pairs that its residual gate refused. Each is the error it
# raised, message and diagnostics, or, where it found the pair, the 60-digit
# two-cycle rounded to floats.
GATED_OUTCOMES = {
    (5131, 0.0005356571724252399): (0.2790496545163176, 0.4644512637516923),
    (1137, 0.003261213031791318): (0.042101342107197064, 0.8554727598411302),
    (84114, 0.00171781570891108): (2.0026553798325145e-63, 1.0),
    (2374, 0.0011457458677705365): (0.3674636242627254, 0.3681403728335358),
    (5143, 0.0005289881722195376): (0.34681860574844015, 0.38927729076829887),
    (65626, 0.0017668547907134387): (4.8673107622644235e-51, 1.0),
    (84481, 3.262373659392009e-05): (0.26805852300907973, 0.47769201086108265),
    (3998, 0.026374937903009613): (6.287190619939429e-46, 1.0),
    (2870, 0.001341647116354358): (0.03432803737312778, 0.8761850214292718),
    (10054, 0.0513424403902343): (2.420196116593131e-219, 1.0),
    (8620, 0.0003472876277090283): (0.13813754508995463, 0.6613174421404009),
    (32235, 0.00011903140292137756): (0.03485945552737361, 0.8748046618780293),
    (4768, 0.0291240953927585): (3.579182707563974e-60, 1.0),
    (12896, 0.00028924074289496334): (0.04048353070695566, 0.859843697135458),
    (3573, 0.0016601892556309238): (0.0029557264390335566, 0.9826199057434412),
    (27686, 9.818786351541183e-05): (0.3677181591357047, 0.36802745711681334),
    (11464, 0.0003065722726726514): (0.055501086022805915, 0.8227858003778936),
    (5089, 0.06299158281806612): (9.76601530050754e-136, 1.0),
    (2335, 0.001164894659565723): (0.3677613794410243, 0.36783992609855704),
    (10895, 0.0004136893991190291): (0.014751543801405293, 0.9356749309513902),
    (27950, 0.0002625607202609394): (0.0006746089683405804, 0.995061568213736),
    (27926, 9.734437305485114e-05): (0.36605202243756013, 0.36969669556422874),
    (72356, 4.54106687170319e-05): (0.07988900960213796, 0.7691312971345728),
    (71442, 0.0002760557620434518): (2.729211740971867e-09, 0.9999999461745537),
    (35488, 0.0001277018798354321): (0.014304818391911577, 0.9372289126067231),
    (32871, 0.002363892554058336): (1.9661511778450927e-34, 1.0),
    (14089, 0.00019907084612539068): ("translation-invariant bisection stalled",
        {"bracket": (0.36215143396162686, 0.3621514339616269),
         "residual": 1.1231571228620396e-12, "tol": 1e-12}),
    (1000, 2.0): ("two-cycle below the smallest positive float; pair not found",
        {"lam": 2.0, "bracket": (0.3333333333333333, 0.33333333333333337)}),
    (50000, 0.00016310180274259632): (0.0002931113190912818, 0.9976125054393555),
    (75671, 3.620161440560515e-05): ("alternating pair residual above tolerance",
        {"pair": (0.29192815942367656, 0.4494604644304468),
         "residual": 4.905020833945173e-12, "tol": 1e-12}),
    (16699, 0.0001645048764944113): ("alternating pair residual above tolerance",
        {"pair": (0.28025174993732166, 0.46308133581522093),
         "residual": 1.0391132398979153e-12, "tol": 1e-12}),
}


class TestPairNewton:
    """The pair's Newton branch, where it is taken, lands within the
    conditioning bound of the deflated probe loop, and hands over every
    other activity to that loop."""

    @pytest.mark.parametrize("k,lam", list(GATED_OUTCOMES))
    def test_gated_outcomes_kept(self, k, lam):
        want = GATED_OUTCOMES[k, lam]
        if isinstance(want[0], str):
            with pytest.raises(ConvergenceError) as err:
                solve_two_periodic(ModelParams(k, lam))
            assert (err.value.args[0], err.value.diagnostics) == want
            return
        got = solve_two_periodic(ModelParams(k, lam)).solutions[1].values
        b = max(1.1 * k * sys.float_info.epsilon / math.sqrt(lam / critical_lambda(k) - 1.0),
                8 * sys.float_info.epsilon)
        for z, w in zip(got, want):
            assert abs(z - w) <= 4 * b * w, (got, want)

    def test_newton_within_the_probe_loops_bound(self):
        rng = random.Random(28)
        # 100 draws of k, within _thresholds' cache: each new k costs a decimal computation
        ks = [round(10.0 ** rng.uniform(math.log10(4.0), 5.0)) for _ in range(100)]
        newton = 0
        for j in range(24_000):
            k = rng.choice(ks)
            lam_cr = critical_lambda(k)
            if j % 4 == 0:
                lam = lam_cr * (1.0 + 10.0 ** -rng.uniform(0, 12))
            else:
                # up to where z1 ~ (1 + lam)**-k leaves the float range, or to the last float
                top = 1.7e308 if j % 8 == 7 else max(lam_cr, math.expm1(760.0 / k))
                lam = math.exp(rng.uniform(math.log(lam_cr), math.log(top)))
            if not solvers._has_pair(lam, lam_cr):
                continue
            try:
                z_fix = solvers._fixed_point(k, lam, 1e-12)[0]
            except (ConvergenceError, DomainError):
                continue  # the fixed point's residual is above tol at large k
            steps = []
            got = outcome(_solve_pair_generic, k, lam, z_fix)
            pair = reference_newton(k, lam, steps)
            assert steps[0] < solvers._NEWTON_STEPS
            if pair is None:
                # a hand-over: the probe loop, each step checked
                assert got == outcome(reference_deflated, k, lam, z_fix, []), (k, lam)
                continue
            newton += 1
            assert got == pair, (k, lam)
            # the probe loop closed in the log form too, which keeps its bound
            want = reference_deflated(k, lam, z_fix, [], checked_log_map(k, lam))
            b = max(1.1 * k * sys.float_info.epsilon / math.sqrt(lam / lam_cr - 1.0),
                    8 * sys.float_info.epsilon)
            for z, w in zip(got, want):
                assert abs(z - w) <= 4 * b * w, (k, lam, got, want)
        assert newton > 10_000


class TestSweepSolve:
    """The sweep's s2 column at each activity is classify's s2 there, or the
    first error that the per-activity solve raises."""

    # tol=1e-300 makes most solves fail, some not: every eighth activity
    # keeps the solves cheap
    @pytest.mark.parametrize("tol,stride", [(1e-12, 1), (1e-300, 8)])
    @pytest.mark.parametrize("k", [*range(2, 11), 15, 30, 100])
    def test_same_bits_and_first_error_as_each_activity(self, k, tol, stride):
        lams = bisection_activities(k) + [10.0 ** (4.0 + 8.0 * j / 99) for j in range(100)]
        lams = lams[::stride]
        want = []
        for lam in lams:
            try:
                want.append(classify(ModelParams(k, lam), tol)[-1].s2)
            except ConvergenceError as exc:
                want = type(exc), exc.args, exc.diagnostics
                break
        args = argparse.Namespace(k=k, quantity="s2", tol=tol)
        assert outcome(cli._sweep_values, args, lams) == want


def near_critical_activities(k):
    """lam_cr*(1 + 10**-j) for j = 2..11 and the first float past the
    window where _degenerate reports the collapsed pair; none inside it."""
    lam_cr = critical_lambda(k)
    edge = lam_cr + 1e-12 * max(1.0, lam_cr)
    while solvers._degenerate(edge, lam_cr):
        edge = math.nextafter(edge, math.inf)
    while not solvers._degenerate(math.nextafter(edge, 0.0), lam_cr):
        edge = math.nextafter(edge, 0.0)
    lams = [lam_cr * (1.0 + 10.0 ** -j) for j in range(2, 12)] + [edge]
    return [lam for lam in lams if not solvers._degenerate(lam, lam_cr)]


class TestPairNextToTheCriticalActivity:
    """The pair is found at every activity above the critical one, up to the
    degenerate window, and as accurately as double precision allows there."""

    @pytest.mark.parametrize("k", [*range(2, 11), 15, 30, 100])
    def test_found_and_within_the_conditioning_of_mpmath(self, k):
        # The map evaluated in double is about k*eps off, and the pair keeps
        # a distance of about sqrt(lam/lam_cr - 1) from the fixed point, so
        # its error grows like k*eps/sqrt(lam/lam_cr - 1): measured up to
        # 1.1 times that for k >= 4 and 2.1 times for k = 3's Cardano form.
        mpmath = pytest.importorskip("mpmath")
        lam_cr = critical_lambda(k)
        for lam in near_critical_activities(k):
            report = solve_two_periodic(ModelParams(k, lam))
            (z_fix,), (z1, z2) = (law.values for law in report.solutions)
            with mpmath.workdps(50):
                lam_mp = mpmath.mpf(lam)

                def f(z):
                    return (1 + lam_mp * z) ** -k

                # polished from z1 on f(f(z)) = z, which shares nothing with
                # the solver's equation; the root must be z1's, not z_fix's
                start = mpmath.mpf(z1)
                root = mpmath.findroot(lambda z: f(f(z)) - z, (start, start * (1 + 2.0 ** -40)))
                assert abs(root - z1) < abs(root - z_fix) / 100, lam
                bound = 4 * k * sys.float_info.epsilon * max(1.0, (lam / lam_cr - 1.0) ** -0.5)
                for got, want in ((z1, root), (z2, f(root))):
                    assert abs(got - want) <= bound * want, (lam, got, want)


@pytest.mark.xfail(strict=True, reason="the fixed point's sign decisions use (1 + lam*z)**-k, "
                   "which carries about k*eps/2 of rounding: 1,192 eps off here")
def test_fixed_point_at_large_k_within_8_eps_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    k = 10**4
    lam = 3.0 * critical_lambda(k)
    z = solve_translation_invariant(ModelParams(k, lam))
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        # log z + k*log(1 + lam*z) = 0 at the fixed point
        root = mpmath.findroot(lambda x: mpmath.log(x) + k * mpmath.log1p(lam_mp * x),
                               mpmath.mpf(z))
        assert abs(mpmath.mpf(z) - root) <= 8 * sys.float_info.epsilon * root
