"""End-to-end acceptance gate: ten go/no-go checks over the whole library.

Each test prints exactly one PASS/FAIL line (run with -s to see them all),
so the suite doubles as a sign-off checklist:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from chain_reference import single_step_matrix, two_step_matrix
from hctree.core import (
    LawKind,
    ModelParams,
    recursion_map,
    two_periodic_law,
)
from hctree.extremality import (
    Verdict,
    _chain_values,
    g_function,
    h_function,
    report_for_law,
)
from hctree.oracle import (
    ENUMERATION_VERTEX_CAP,
    FiniteBall,
    RootDegree,
    conditional_child_distribution,
    consistency_check,
    hard_core_violations,
    partition_function,
    sample_tree_chain,
)
from hctree.solvers import (
    critical_lambda,
    critical_values,
    discriminant_k3,
    k3_cubic_root,
    lambda_pm,
    lambda_star,
    nonextremal_bound,
    s_pm,
    solve_translation_invariant,
    solve_two_periodic,
    solve_two_periodic_k2_closed,
    solve_two_periodic_k3_closed,
)
from hctree.weakperiodic import (
    WeakPeriodicParams,
    solve_weak_periodic,
)


def _gate(num: int, desc: str, body) -> None:
    """Run one acceptance check and print its single status line."""
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}")


def test_criterion_01_critical_activities_exact():
    def body():
        assert abs(critical_lambda(2) - 4.0) <= 1e-14 * 4.0
        assert abs(critical_lambda(3) - 27.0 / 16.0) <= 1e-14 * (27.0 / 16.0)

    _gate(1, "critical activities for k=2 and k=3 match the exact values", body)


def test_criterion_02_k2_solution_counts_and_identities():
    def body():
        for lam in (1.0, 2.0, 4.0):
            rep = solve_two_periodic(ModelParams(2, lam))
            assert rep.system_solution_count == 1
        for lam in (4.5, 5.0, 10.0, 100.0):
            rep = solve_two_periodic(ModelParams(2, lam))
            assert rep.system_solution_count == 3
            pair = next(s for s in rep.solutions if s.kind is LawKind.TWO_PERIODIC)
            z1, z2 = pair.values
            assert abs(lam * lam * z1 * z2 - 1.0) <= 1e-12
            assert abs(lam * (z1 + z2) - (lam - 2.0)) <= 1e-12

    _gate(2, "k=2 ordered solution counts step 1 to 3 and pair identities hold", body)


def test_criterion_03_k2_pair_certified_extremal():
    def body():
        for lam in (4.0 + 1e-6, 4.5, 5.0, 10.0, 30.0, 100.0, 1e4):
            z1, z2 = solve_two_periodic_k2_closed(lam)
            rep = report_for_law(ModelParams(2, lam), two_periodic_law(z1, z2))
            assert abs(rep.s2 - 1.0 / lam) <= 1e-12
            assert rep.ks_value == pytest.approx(4.0 / lam ** 2, abs=1e-12)
            assert rep.ks_value < 1.0
            assert rep.msw_value == pytest.approx(4.0 / (lam + 1.0), abs=1e-12)
            assert (rep.msw_value < 1.0) == (lam > 3.0)
            assert rep.verdict is Verdict.PROVEN_EXTREMAL

    _gate(3, "k=2 alternating pair is certified extremal at every tested activity", body)


def test_criterion_04_k3_closed_form():
    def body():
        assert abs(discriminant_k3(27.0 / 16.0)) <= 1e-8
        lo, hi = 1.6875, 100.0
        grid = [lo + (hi - lo) * (j + 1) / 100.0 for j in range(100)]
        for lam in grid:
            assert discriminant_k3(lam) > 0.0
            a = k3_cubic_root(lam)
            assert abs(a ** 3 - a ** 2 - 1.0 / lam) <= 1e-12
            z1, z2 = solve_two_periodic_k3_closed(lam)
            p = ModelParams(3, lam)
            assert abs(recursion_map(p, z1) - z2) <= 1e-9
            assert abs(recursion_map(p, z2) - z1) <= 1e-9

    _gate(4, "k=3 closed form: discriminant sign, cubic root, and pair residuals", body)


def test_criterion_05_k3_diagnostics_negative_decreasing():
    def body():
        n = 1000
        grid = [1.75 * (100.0 / 1.75) ** (j / (n - 1.0)) for j in range(n)]
        hs = [h_function(x) for x in grid]
        gs = [g_function(x) for x in grid]
        assert all(v < 0.0 for v in hs)
        assert all(v < 0.0 for v in gs)
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert all(a > b for a, b in zip(gs, gs[1:]))

    _gate(5, "k=3 spectral and contraction diagnostics stay negative and decrease", body)


def test_criterion_06_threshold_activities():
    def body():
        for k in range(2, 11):
            t = critical_values(k).t_star
            assert 0.0 < t < 1.0
            assert abs(t ** (k + 1) - k * t ** 2 + (2 * k - 1) * t - (k - 1)) <= 1e-12
            assert lambda_star(k) < nonextremal_bound(k)

    _gate(6, "threshold-polynomial roots and ordering of the two bounds for k=2..10", body)


def test_criterion_07_finite_volume_oracle():
    def body():
        t0 = time.perf_counter()

        for k, depth in ((2, 3), (3, 2)):
            lam_ti = 2.5
            z = solve_translation_invariant(ModelParams(k, lam_ti))
            ball = FiniteBall(k, depth)
            assert consistency_check(ball, lam_ti, z) < 1e-10
            assert consistency_check(ball, lam_ti, z + 0.1) > 1e-4

            lam_pair = {2: 5.0, 3: 3.0}[k]
            rep = solve_two_periodic(ModelParams(k, lam_pair))
            pair = next(s for s in rep.solutions if s.kind is LawKind.TWO_PERIODIC)
            z1, z2 = pair.values
            assignment = [z1 if lev % 2 == 1 else z2 for lev in ball.level]
            assert consistency_check(ball, lam_pair, assignment) < 1e-10

        for k, depth, deg in (
            (2, 3, RootDegree.HALF),
            (2, 2, RootDegree.FULL),
            (3, 2, RootDegree.HALF),
            (3, 1, RootDegree.FULL),
        ):
            ball = FiniteBall(k, depth, deg)
            assert ball.n_vertices <= ENUMERATION_VERTEX_CAP
            for lam, z in ((0.7, 1.3), (2.0, 0.25), (5.0, 0.8)):
                a = partition_function(ball, lam, z, method="enumeration")
                b = partition_function(ball, lam, z, method="recursion")
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

        assert time.perf_counter() - t0 < 10.0

    _gate(7, "brute-force oracle: consistency checks and partition cross-checks", body)


def test_criterion_08_conditional_rows_match_matrices():
    def body():
        lam = 5.0
        z1, z2 = solve_two_periodic_k2_closed(lam)
        p = ModelParams(2, lam)
        ball = FiniteBall(2, 3)
        assignment = [z1 if lev % 2 == 1 else z2 for lev in ball.level]
        m1 = single_step_matrix(p, z1)
        m2 = two_step_matrix(p, z1, z2)
        for spin in (0, 1):
            got = conditional_child_distribution(ball, lam, assignment, spin, steps=1)
            want = (m1.p00, m1.p01) if spin == 0 else (m1.p10, m1.p11)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
            got = conditional_child_distribution(ball, lam, assignment, spin, steps=2)
            want = (m2.p00, m2.p01) if spin == 0 else (m2.p10, m2.p11)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    _gate(8, "exact conditional distributions reproduce the transition matrices", body)


def test_criterion_09_weak_periodic_counts():
    def body():
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 3.0), "I2")
        assert rep.count == 1 and rep.non_ti_count == 0
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 6.0), "I2")
        assert rep.count == 3 and rep.non_ti_count == 2

        assert solve_weak_periodic(WeakPeriodicParams(3, 1, 1.5), "I2").count == 1
        assert solve_weak_periodic(WeakPeriodicParams(3, 1, 3.0), "I2").count == 3

        rep = solve_weak_periodic(WeakPeriodicParams(6, 1, 10.0), "I4")
        assert rep.count >= 3 and rep.non_ti_count >= 2
        lo, hi = lambda_pm(6)
        assert lo == pytest.approx(5.6953125, rel=1e-12)
        assert hi == pytest.approx(64.0, rel=1e-12)
        sm, sp = s_pm(6)
        assert (sm, sp) == pytest.approx((0.5, 1.0), rel=1e-12)

    _gate(9, "weak-periodic fixed-point counts on the invariant planes", body)


def test_criterion_10_randomized_cross_validation():
    def body():
        rng = np.random.default_rng(987654321)

        # 10^4 random chains: eigenvalue, determinant, and row contraction
        # of the two-step matrix agree, the rows are stochastic, and the
        # geometric-mean certificate value never exceeds k_eff times the
        # absolute determinant
        ks = rng.integers(2, 11, size=10_000)
        lams = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=10_000))
        z1s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        z2s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10_000))
        for k, lam, z1, z2 in zip(ks, lams, z1s, z2s):
            p = ModelParams(int(k), float(lam))
            law = two_periodic_law(float(z1), float(z2))
            m = two_step_matrix(p, *law.values)
            assert abs(m.p00 + m.p01 - 1.0) <= 1e-12
            assert abs(m.p10 + m.p11 - 1.0) <= 1e-12
            # the pair's values as report_for_law computes them
            k_eff, s2, mart, _ = _chain_values(p.k, p.lam, law.values)
            det = m.p00 * m.p11 - m.p01 * m.p10
            kappa = 0.5 * (abs(m.p00 - m.p10) + abs(m.p01 - m.p11))
            assert abs(s2 - det) <= 1e-13
            assert abs(kappa - abs(det)) <= 1e-13
            assert mart <= k_eff * s2 * (1 + 1e-12)

        # 10^5 sampled configurations: admissible without exception and with
        # empirical transition frequencies within 3 sigma of the matrix rows
        p = ModelParams(2, 5.0)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        n = 100_000
        res = sample_tree_chain(p, z1, z2, depth=3, count=n, seed=20260818)
        assert hard_core_violations(res.ball, res.spins) == 0

        m1 = single_step_matrix(p, z1)
        m2 = two_step_matrix(p, z1, z2)
        pi1 = m2.p01 / (m2.p01 + m2.p10)
        root = res.spins[:, 0].astype(float)
        sigma = (pi1 * (1.0 - pi1) / n) ** 0.5
        assert abs(root.mean() - pi1) <= 3.0 * sigma

        child = res.ball.children[0][0]
        grandchild = res.ball.children[child][0]
        empty_root = res.spins[:, 0] == 0
        n0 = int(empty_root.sum())
        f1 = float(res.spins[empty_root, child].mean())
        sigma1 = (m1.p01 * (1.0 - m1.p01) / n0) ** 0.5
        assert abs(f1 - m1.p01) <= 3.0 * sigma1
        f2 = float(res.spins[empty_root, grandchild].mean())
        sigma2 = (m2.p01 * (1.0 - m2.p01) / n0) ** 0.5
        assert abs(f2 - m2.p01) <= 3.0 * sigma2
        # an occupied root forces an empty child in every sample
        occupied_root = res.spins[:, 0] == 1
        assert int(res.spins[occupied_root, child].sum()) == 0

    _gate(10, "randomized agreement of matrices, certificates, and the sampler", body)
