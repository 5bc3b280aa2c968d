"""Reconstruction and contraction certificates for solved boundary laws."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from chain_reference import single_step_matrix, two_step_matrix
from hctree.core import (
    ConvergenceError,
    DomainError,
    LawKind,
    ModelParams,
    two_periodic_law,
    translation_invariant_law,
)
from hctree.extremality import (
    Verdict,
    _verdict,
    classify,
    g_function,
    h_function,
    report_for_law,
)
from hctree.solvers import (
    critical_lambda,
    lambda_star,
    nonextremal_bound,
    solve_translation_invariant,
    solve_two_periodic,
    solve_two_periodic_k2_closed,
)

class TestK2PairFormulas:
    @pytest.mark.parametrize("lam", [4.5, 5.0, 6.0, 10.0, 30.0, 100.0])
    def test_pair_eigenvalue_is_reciprocal_activity(self, lam):
        rep = report_for_law(ModelParams(2, lam), two_periodic_law(*solve_two_periodic_k2_closed(lam)))
        assert rep.s2 == pytest.approx(1.0 / lam, abs=1e-12)
        assert rep.ks_value == pytest.approx(4.0 / lam ** 2, abs=1e-12)
        assert rep.msw_value == pytest.approx(4.0 / (lam + 1.0), abs=1e-12)

    @pytest.mark.parametrize("lam", [4.1, 5.0, 12.0, 80.0])
    def test_pair_always_proven_extremal(self, lam):
        rep = report_for_law(ModelParams(2, lam), two_periodic_law(*solve_two_periodic_k2_closed(lam)))
        assert rep.k_eff == 4
        assert rep.ks_value < 1.0
        assert rep.msw_value < 1.0
        assert rep.verdict is Verdict.PROVEN_EXTREMAL


class TestInvariantLawVerdicts:
    def test_k2_high_activity_nonextremal(self):
        p = ModelParams(2, 30.0)
        z = solve_translation_invariant(p)
        rep = report_for_law(p, translation_invariant_law(z))
        assert rep.k_eff == 2
        assert rep.s2 == pytest.approx(0.71254860935510314, rel=1e-10)
        assert rep.ks_value == pytest.approx(1.0154510413877828, rel=1e-10)
        assert rep.msw_value == pytest.approx(1.3791263406872964, rel=1e-10)
        assert rep.verdict is Verdict.PROVEN_NONEXTREMAL

    def test_k2_intermediate_undetermined(self):
        # between the certified-extremal and certified-nonextremal windows
        p = ModelParams(2, 10.0)
        z = solve_translation_invariant(p)
        rep = report_for_law(p, translation_invariant_law(z))
        assert rep.ks_value < 1.0
        assert rep.msw_value > 1.0
        assert not rep.martinelli_no_reconstruction
        assert not rep.mossel_no_reconstruction
        assert rep.verdict is Verdict.UNDETERMINED

    @pytest.mark.parametrize("k", range(2, 11))
    def test_unit_activity_invariant_extremal(self, k):
        # activity 1 sits below every lambda_star, so the invariant law is
        # certified extremal for all these branching numbers
        assert lambda_star(k) > 1.0
        reports = classify(ModelParams(k, 1.0))
        inv = [r for r in reports if r.law.kind is LawKind.TRANSLATION_INVARIANT]
        assert len(inv) == 1
        assert inv[0].verdict is Verdict.PROVEN_EXTREMAL

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_threshold_activities_flip_certificates(self, k):
        def invariant(lam):
            p = ModelParams(k, lam)
            return report_for_law(p, translation_invariant_law(solve_translation_invariant(p)))

        assert invariant(lambda_star(k) * 0.999).msw_value < 1.0
        assert invariant(lambda_star(k) * 1.001).msw_value > 1.0
        assert invariant(nonextremal_bound(k) * 1.001).ks_value > 1.0
        assert invariant(nonextremal_bound(k) * 0.999).ks_value < 1.0


class TestVerdictLogic:
    def test_invariant_law_compares_lam_with_the_exact_thresholds(self):
        # lambda_star(3) rounds up and the bound at k = 4 is 16 exactly: the
        # float itself lies above lambda_star and on the bound
        star = lambda_star(3)
        assert _verdict(3, math.nextafter(star, 0.0)) is Verdict.PROVEN_EXTREMAL
        assert _verdict(3, star) is Verdict.UNDETERMINED
        assert _verdict(4, 16.0) is Verdict.UNDETERMINED
        assert _verdict(4, math.nextafter(16.0, math.inf)) is Verdict.PROVEN_NONEXTREMAL

    def test_pair_nonextremal(self):
        assert _verdict(2, 5.0, (1.2, 2.0, False, False)) is Verdict.PROVEN_NONEXTREMAL

    def test_pair_extremal_by_any_certificate(self):
        assert _verdict(2, 5.0, (0.5, 0.5, False, False)) is Verdict.PROVEN_EXTREMAL
        assert _verdict(2, 5.0, (0.5, 2.0, True, False)) is Verdict.PROVEN_EXTREMAL
        assert _verdict(2, 5.0, (0.5, 2.0, False, True)) is Verdict.PROVEN_EXTREMAL

    def test_pair_undetermined(self):
        assert _verdict(2, 5.0, (0.9, 1.5, False, False)) is Verdict.UNDETERMINED

    def test_fixed_point_as_a_two_periodic_law_keeps_the_pair_rule(self):
        # two_periodic_law(z, z) solves the recursion; its two-step chain
        # has ks = 1.03 and msw = 1.97 at k = 2, lam = 30
        params = ModelParams(2, 30.0)
        z = solve_translation_invariant(params)
        rep = report_for_law(params, two_periodic_law(z, z))
        assert rep.ks_value > 1.0 and rep.msw_value > 1.0
        assert rep.verdict is Verdict.PROVEN_NONEXTREMAL

    def test_weak_law_rejected(self):
        from hctree.core import weak_periodic_law

        with pytest.raises(DomainError):
            report_for_law(ModelParams(2, 1.0), weak_periodic_law((1, 2, 3, 4), "I2"))


def _exact_invariant_verdict(mpmath, k, lam):
    """The invariant law's verdict from its certificates at 50 digits: the
    fixed point z of z = (1 + lam*z)**-k, s2 = lam*z/(1 + lam*z), ks = k*s2**2,
    msw = k*s2*lam/(1 + lam), both reconstruction values k*s2. On the
    Kesten-Stigum bound at k = 4 (16) and 9 (19683/1024) ks is exactly 1."""
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        z = mpmath.findroot(lambda z: (1 + x * z) ** -k - z, (mpmath.mpf(0), mpmath.mpf(1)),
                            solver="anderson")
        s2 = x * z / (1 + x * z)
        ks, msw = k * s2 * s2, k * s2 * x / (1 + x)
        if (k, Fraction(lam)) in ((4, Fraction(16)), (9, Fraction(19683, 1024))):
            ks = mpmath.mpf(1)
        if ks > 1:
            return Verdict.PROVEN_NONEXTREMAL
        if msw < 1 or k * s2 <= 1:
            return Verdict.PROVEN_EXTREMAL
        return Verdict.UNDETERMINED


class TestThresholdVerdicts:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_verdicts_at_the_threshold_floats_match_50_digits(self, k):
        # lambda_star and the Kesten-Stigum bound, each between its float
        # neighbours: the exact certificate is within an ulp of 1 there
        mpmath = pytest.importorskip("mpmath")
        for lam in (lambda_star(k), nonextremal_bound(k)):
            for x in (math.nextafter(lam, 0.0), lam, math.nextafter(lam, math.inf)):
                got = classify(ModelParams(k, x))[0]
                assert got.law.kind is LawKind.TRANSLATION_INVARIANT
                assert got.verdict is _exact_invariant_verdict(mpmath, k, x), (k, x)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_pair_solves_the_recursion_exactly_with_s2_at_most_1_over_k_squared(self, k):
        # with q = sum(r**j, j < k-1) and Q = sum(r**j, j < k) = 1 + r*q:
        # lam*z2 = 1/(r*q), so (1 + lam*z2)**-k = (r*q/Q)**k = z1, and the
        # other way round. s2 = r**(k-1)/Q**2 <= 1/k**2 by AM-GM, so the
        # pair's msw is below lam/(1 + lam) < 1: the sweep's verdict
        for r in (Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                  Fraction(9, 10), Fraction(999, 1000)):
            q = sum(r ** j for j in range(k - 1))
            big_q = sum(r ** j for j in range(k))
            z2 = (q / big_q) ** k
            z1 = r ** k * z2
            lam = big_q ** k / (r * q ** (k + 1))
            assert (1 + lam * z2) ** -k == z1
            assert (1 + lam * z1) ** -k == z2
            a, b = lam * z1 / (1 + lam * z1), lam * z2 / (1 + lam * z2)
            assert a * b == r ** (k - 1) / big_q ** 2
            assert a * b < Fraction(1, k * k)
            assert k * k * a * b * lam / (1 + lam) < 1


class TestNonSolutions:
    def test_random_non_solutions_raise_domain_error(self):
        # the random draw of test_acceptance criterion 10: none of these
        # pairs solves the recursion
        rng = np.random.default_rng(987654321)
        ks = rng.integers(2, 11, size=10_000)
        lams = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=10_000))
        z1s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        z2s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        for k, lam, z1, z2 in zip(ks, lams, z1s, z2s):
            law = two_periodic_law(*sorted((float(z1), float(z2))))
            with pytest.raises(DomainError, match="does not solve the recursion"):
                report_for_law(ModelParams(int(k), float(lam)), law)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 10, 30, 100])
    def test_every_solved_law_is_accepted(self, k):
        # next to the critical activity, and a ladder from 0.01 up to the
        # pair's underflow edge, where z1 is subnormal
        lam_cr = critical_lambda(k)
        lams = [lam_cr * (1.0 + 10.0 ** -j) for j in range(1, 12)]
        lam = last = 0.01
        while True:
            try:
                solve_two_periodic(ModelParams(k, lam))
            except ConvergenceError:
                break
            lams.append(lam)
            last, lam = lam, lam * 10.0 ** 0.05
        for _ in range(60):
            mid = last * math.sqrt(lam / last)
            try:
                solve_two_periodic(ModelParams(k, mid))
            except ConvergenceError:
                lam = mid
            else:
                lams.append(mid)
                last = mid
        subnormal = 0
        for lam in lams:
            reports = classify(ModelParams(k, lam))
            assert reports[0].verdict is _verdict(k, lam)
            if len(reports) == 2:
                assert reports[1].verdict is Verdict.PROVEN_EXTREMAL
                subnormal += reports[1].law.values[0] < sys.float_info.min
        assert subnormal > 0

    @pytest.mark.parametrize("values", [(1e300,), (1e300, 1e300), (0.5, 1e300), (1e-300, 1e300)])
    def test_overflowing_non_solution_raises_domain_error(self, values):
        law = (translation_invariant_law if len(values) == 1 else two_periodic_law)(*values)
        with pytest.raises(DomainError, match="does not solve the recursion"):
            report_for_law(ModelParams(2, 1e10), law)


class TestClassify:
    def test_below_threshold_single_report(self):
        reports = classify(ModelParams(2, 2.0))
        assert len(reports) == 1
        assert reports[0].law.kind is LawKind.TRANSLATION_INVARIANT

    def test_above_threshold_two_reports(self):
        reports = classify(ModelParams(2, 5.0))
        kinds = {r.law.kind for r in reports}
        assert kinds == {LawKind.TRANSLATION_INVARIANT, LawKind.TWO_PERIODIC}
        pair = next(r for r in reports if r.law.kind is LawKind.TWO_PERIODIC)
        assert pair.verdict is Verdict.PROVEN_EXTREMAL
        assert pair.k_eff == 4


class TestK3Diagnostics:
    def test_domain(self):
        with pytest.raises(DomainError):
            h_function(1.6)
        with pytest.raises(DomainError):
            g_function(1.0)

    def test_value_at_threshold(self):
        # the pair degenerates onto the fixed point where kappa = 1/9
        assert h_function(27.0 / 16.0) == pytest.approx(-8.0 / 9.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [1.7, 2.0, 5.0, 20.0, 100.0])
    def test_both_negative(self, lam):
        assert h_function(lam) < 0.0
        assert g_function(lam) < 0.0

    def test_monotone_decreasing(self):
        grid = [1.75 * (100.0 / 1.75) ** (j / 40.0) for j in range(41)]
        hs = [h_function(x) for x in grid]
        gs = [g_function(x) for x in grid]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert all(a > b for a, b in zip(gs, gs[1:]))


class TestReportAssembly:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_report_values_follow_from_one_chain(self, k):
        # every certificate value of a report belongs to the one chain matrix
        # of its law, on the invariant and the alternating chain
        for j in range(300):
            lam = 0.05 * (2000.0 ** (j / 299.0))
            params = ModelParams(k, lam)
            for rep in classify(params):
                if rep.law.kind is LawKind.TWO_PERIODIC:
                    m, k_eff = two_step_matrix(params, *rep.law.values), k * k
                else:
                    m, k_eff = single_step_matrix(params, *rep.law.values), k
                assert rep.k_eff == k_eff
                assert 0.0 < rep.s2 < 1.0
                assert rep.s2 == pytest.approx(abs(m.p00 * m.p11 - m.p01 * m.p10), abs=1e-13)
                assert rep.kappa == rep.s2
                assert rep.gamma == lam / (lam + 1.0)
                assert rep.ks_value == rep.k_eff * rep.s2 * rep.s2
                assert rep.msw_value == rep.k_eff * rep.kappa * rep.gamma
                # (sqrt(p00*p11) - sqrt(p01*p10))**2 <= |det|
                assert rep.martinelli_value <= rep.k_eff * rep.s2 * (1 + 1e-12)
                assert rep.martinelli_no_reconstruction == (rep.martinelli_value <= 1.0)
                assert rep.mossel_no_reconstruction == (rep.mossel_value <= 1.0)


ACCURACY_LAMBDAS = [0.01 * 1e14 ** (j / 199) for j in range(200)]


def _closed_form(mpmath, k, lam, law):
    """The report's certificate values in 50-digit arithmetic from its own z:
    a = w/(1+w), abar = 1/(1+w) with w = lam*z, then b, bbar from z2."""
    lam = mpmath.mpf(lam)
    occ = [(lam * z / (1 + lam * z), 1 / (1 + lam * z)) for z in map(mpmath.mpf, law.values)]
    if law.kind is LawKind.TRANSLATION_INVARIANT:
        (s2, _), = occ
        k_eff, mart, mossel = k, k * s2, k * s2
    else:
        (a, a_bar), (b, b_bar) = occ
        s2, p00, k_eff = a * b, a + a_bar * b_bar, k * k
        mart = k_eff * s2 ** 2 / (mpmath.sqrt(p00 * b) + mpmath.sqrt(a_bar * b * b_bar)) ** 2
        mossel = k_eff * s2 ** 2 / min(p00 + b_bar, b * (1 + a_bar))
    gamma = lam / (lam + 1)
    return {"s2": s2, "kappa": s2, "gamma": gamma, "ks_value": k_eff * s2 * s2,
            "msw_value": k_eff * s2 * gamma, "martinelli_value": mart, "mossel_value": mossel}


class TestCertificateAccuracy:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_certificates_match_50_digit_closed_forms(self, k):
        mpmath = pytest.importorskip("mpmath")  # ships with sympy
        lam_cr = critical_lambda(k)
        for lam in ACCURACY_LAMBDAS:
            reports = classify(ModelParams(k, lam))
            assert len(reports) == (2 if lam > lam_cr else 1)
            for rep in reports:
                with mpmath.workdps(50):
                    want = _closed_form(mpmath, k, lam, rep.law)
                for name, value in want.items():
                    got = getattr(rep, name)
                    assert abs(got - value) <= 1e-14 * value, (k, lam, rep.law, name, got)
                assert rep.kappa == rep.s2
                if rep.law.kind is LawKind.TRANSLATION_INVARIANT:
                    # the reconstruction values never decide this law's verdict
                    assert rep.martinelli_value == rep.mossel_value == k * rep.s2
                    assert k * rep.s2 >= rep.msw_value
                elif k <= 3:
                    # the theorem: the pair is extremal above the critical activity
                    assert rep.verdict is Verdict.PROVEN_EXTREMAL, (k, lam)
