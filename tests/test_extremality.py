"""Reconstruction and contraction certificates for solved boundary laws."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hctree.core import (
    DomainError,
    InternalCheckError,
    LawKind,
    ModelParams,
    TransitionMatrix2,
    two_periodic_law,
    two_step_matrix,
    translation_invariant_law,
)
from hctree.extremality import (
    Verdict,
    _verdict,
    classify,
    g_function,
    gamma_bound,
    h_function,
    kappa_contraction,
    kesten_stigum,
    martinelli_check,
    mossel_check,
    msw_check,
    report_for_law,
    second_eigenvalue,
)
from hctree.solvers import (
    lambda_star,
    nonextremal_bound,
    solve_translation_invariant,
    solve_two_periodic_k2_closed,
)

positives = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
probs = st.floats(min_value=0.0, max_value=1.0)


class TestBuildingBlocks:
    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=0.01, max_value=100.0),
        positives,
        positives,
    )
    @settings(max_examples=80)
    def test_second_eigenvalue_matches_matrix(self, k, lam, z1, z2):
        p = ModelParams(k, lam)
        m = two_step_matrix(p, z1, z2)
        s2 = second_eigenvalue(p, z1, z2)
        assert 0.0 < s2 < 1.0
        assert s2 == pytest.approx(m.second_eigenvalue(), abs=1e-13)
        assert s2 == pytest.approx(m.determinant(), abs=1e-13)
        assert s2 == pytest.approx(kappa_contraction(m), abs=1e-13)

    def test_second_eigenvalue_domain(self):
        with pytest.raises(DomainError):
            second_eigenvalue(ModelParams(2, 1.0), 0.0, 1.0)

    def test_kappa_of_equal_rows_is_zero(self):
        m = TransitionMatrix2(0.4, 0.6, 0.4, 0.6)
        assert kappa_contraction(m) == 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_gamma_bound(self, lam):
        g = gamma_bound(ModelParams(2, lam))
        assert 0.0 < g < 1.0
        assert g == pytest.approx(lam / (lam + 1.0), rel=1e-15)


class TestK2PairFormulas:
    @pytest.mark.parametrize("lam", [4.5, 5.0, 6.0, 10.0, 30.0, 100.0])
    def test_pair_eigenvalue_is_reciprocal_activity(self, lam):
        p = ModelParams(2, lam)
        z1, z2 = solve_two_periodic_k2_closed(lam)
        assert second_eigenvalue(p, z1, z2) == pytest.approx(1.0 / lam, abs=1e-12)
        assert kesten_stigum(p, z1, z2) == pytest.approx(4.0 / lam ** 2, abs=1e-12)
        assert msw_check(p, z1, z2) == pytest.approx(4.0 / (lam + 1.0), abs=1e-12)

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
        p_low = ModelParams(k, lambda_star(k) * 0.999)
        z = solve_translation_invariant(p_low)
        assert msw_check(p_low, z, z, two_periodic=False) < 1.0

        p_high = ModelParams(k, lambda_star(k) * 1.001)
        z = solve_translation_invariant(p_high)
        assert msw_check(p_high, z, z, two_periodic=False) > 1.0

        p_ks = ModelParams(k, nonextremal_bound(k) * 1.001)
        z = solve_translation_invariant(p_ks)
        assert kesten_stigum(p_ks, z, z, two_periodic=False) > 1.0
        p_ks = ModelParams(k, nonextremal_bound(k) * 0.999)
        z = solve_translation_invariant(p_ks)
        assert kesten_stigum(p_ks, z, z, two_periodic=False) < 1.0


class TestReconstructionChecks:
    @given(st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=1, max_value=50))
    def test_symmetric_channel_martinelli_equals_ks(self, p, k_eff):
        # for a symmetric channel both quantities reduce to k_eff*(1-2p)**2
        m = TransitionMatrix2(1.0 - p, p, p, 1.0 - p)
        value, ok = martinelli_check(m, k_eff)
        expected = k_eff * (1.0 - 2.0 * p) ** 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert ok == (value <= 1.0)

    def test_mossel_zero_numerator(self):
        m = TransitionMatrix2(0.5, 0.5, 0.5, 0.5)
        assert mossel_check(m, 100) == (0.0, True)

    def test_mossel_known_value(self):
        m = TransitionMatrix2(0.75, 0.25, 0.5, 0.5)
        value, ok = mossel_check(m, 4)
        # 4 * 0.0625 / min(1.25, 0.75) = 1/3
        assert value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert ok

    def test_k_eff_domain(self):
        m = TransitionMatrix2(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            martinelli_check(m, 0)
        with pytest.raises(DomainError):
            mossel_check(m, 0)

    @given(probs, probs, st.integers(min_value=1, max_value=30))
    @settings(max_examples=200)
    def test_geometric_mean_value_below_determinant(self, a, b, k_eff):
        # (sqrt(p00*p11) - sqrt(p01*p10))**2 <= |det|, so this certificate is
        # at least as strong as one built from k_eff * |det|
        m = TransitionMatrix2(a, 1.0 - a, b, 1.0 - b)
        value, _ = martinelli_check(m, k_eff)
        assert value <= k_eff * abs(m.determinant()) + 1e-12


class TestVerdictLogic:
    def test_conflict_raises(self):
        with pytest.raises(InternalCheckError):
            _verdict(1.5, 0.5, False, False)

    def test_nonextremal(self):
        assert _verdict(1.2, 2.0, False, False) is Verdict.PROVEN_NONEXTREMAL

    def test_extremal_by_any_certificate(self):
        assert _verdict(0.5, 0.5, False, False) is Verdict.PROVEN_EXTREMAL
        assert _verdict(0.5, 2.0, True, False) is Verdict.PROVEN_EXTREMAL
        assert _verdict(0.5, 2.0, False, True) is Verdict.PROVEN_EXTREMAL

    def test_undetermined(self):
        assert _verdict(0.9, 1.5, False, False) is Verdict.UNDETERMINED

    def test_weak_law_rejected(self):
        from hctree.core import weak_periodic_law

        with pytest.raises(DomainError):
            report_for_law(ModelParams(2, 1.0), weak_periodic_law((1, 2, 3, 4), "I2"))


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


class TestHelpersAgreeWithReport:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_helpers_equal_report_values(self, k):
        # the public helpers and report_for_law build one chain; their values
        # must agree exactly, on the invariant and the alternating chain
        for j in range(300):
            params = ModelParams(k, 0.05 * (2000.0 ** (j / 299.0)))
            for rep in classify(params):
                two_periodic = rep.law.kind is LawKind.TWO_PERIODIC
                z1, z2 = rep.law.values if two_periodic else rep.law.values * 2
                assert kesten_stigum(params, z1, z2, two_periodic) == rep.ks_value
                assert msw_check(params, z1, z2, two_periodic) == rep.msw_value
