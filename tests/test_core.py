"""Parameter records, law containers, the recursion, and the reference
transition matrices the other tests check against."""

import math

import pytest
from hypothesis import given, strategies as st

from chain_reference import single_step_matrix, two_step_matrix
from hctree.core import (
    BoundaryLaw,
    DomainError,
    LawKind,
    ModelParams,
    recursion_map,
    translation_invariant_law,
    two_periodic_law,
    weak_periodic_law,
)

activities = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
values = st.floats(min_value=1e-4, max_value=1e4, allow_nan=False)
branchings = st.integers(min_value=2, max_value=12)


def determinant(m):
    return m.p00 * m.p11 - m.p01 * m.p10


class TestModelParams:
    def test_accepts_valid(self):
        p = ModelParams(3, 2.5)
        assert p.k == 3 and p.lam == 2.5

    @pytest.mark.parametrize("k", [1, 0, -2, 2.0, "3", True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(DomainError):
            ModelParams(k, 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(DomainError):
            ModelParams(2, lam)

    def test_frozen(self):
        p = ModelParams(2, 1.0)
        with pytest.raises(Exception):
            p.k = 5


class TestBoundaryLaw:
    def test_ti_factory(self):
        law = translation_invariant_law(0.5)
        assert law.kind is LawKind.TRANSLATION_INVARIANT
        assert law.values == (0.5,)
        assert law.invariant_set is None

    def test_pair_factory_sorts(self):
        law = two_periodic_law(0.9, 0.1)
        assert law.values == (0.1, 0.9)

    def test_pair_rejects_descending_direct(self):
        with pytest.raises(DomainError):
            BoundaryLaw(LawKind.TWO_PERIODIC, (0.9, 0.1))

    def test_weak_factory(self):
        law = weak_periodic_law((1, 2, 3, 4), "I2")
        assert law.kind is LawKind.WEAK_PERIODIC
        assert law.values == (1.0, 2.0, 3.0, 4.0)
        assert law.invariant_set == "I2"

    def test_weak_requires_known_set(self):
        with pytest.raises(DomainError):
            weak_periodic_law((1, 2, 3, 4), "I9")

    def test_invariant_set_only_for_weak(self):
        with pytest.raises(DomainError):
            BoundaryLaw(LawKind.TRANSLATION_INVARIANT, (1.0,), invariant_set="I2")

    @pytest.mark.parametrize("vals", [(), (1.0, 2.0), (1.0, 2.0, 3.0)])
    def test_arity_enforced_ti(self, vals):
        with pytest.raises(DomainError):
            BoundaryLaw(LawKind.TRANSLATION_INVARIANT, vals)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            translation_invariant_law(0.0)
        with pytest.raises(DomainError):
            two_periodic_law(-1.0, 2.0)


class TestRecursionMap:
    def test_known_value(self):
        # (1 + 4*0.25)**(-2) = 1/4
        assert recursion_map(ModelParams(2, 4.0), 0.25) == pytest.approx(0.25, rel=1e-15)

    @given(branchings, activities, values, values)
    def test_strictly_decreasing(self, k, lam, a, b):
        p = ModelParams(k, lam)
        lo, hi = sorted((a, b))
        if hi - lo < 1e-12 * max(1.0, hi):
            return
        assert recursion_map(p, lo) > recursion_map(p, hi)

    @given(branchings, activities, values)
    def test_image_in_unit_interval(self, k, lam, z):
        y = recursion_map(ModelParams(k, lam), z)
        assert 0.0 < y < 1.0

    def test_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            recursion_map(ModelParams(2, 1.0), 0.0)


class TestChainMatrices:
    @given(branchings, activities, values)
    def test_single_step_structure(self, k, lam, z):
        m = single_step_matrix(ModelParams(k, lam), z)
        assert m.p10 == 1.0 and m.p11 == 0.0
        assert m.p00 + m.p01 == pytest.approx(1.0, abs=1e-12)
        assert m.p01 == pytest.approx(lam * z / (1 + lam * z), rel=1e-12)

    @given(branchings, activities, values, values)
    def test_two_step_is_composition(self, k, lam, z1, z2):
        p = ModelParams(k, lam)
        direct = two_step_matrix(p, z1, z2)
        a, b = single_step_matrix(p, z1), single_step_matrix(p, z2)
        composed = (a.p00 * b.p00 + a.p01 * b.p10, a.p00 * b.p01 + a.p01 * b.p11,
                    a.p10 * b.p00 + a.p11 * b.p10, a.p10 * b.p01 + a.p11 * b.p11)
        for name, want in zip(("p00", "p01", "p10", "p11"), composed):
            assert getattr(direct, name) == pytest.approx(want, abs=1e-13)

    @given(branchings, activities, values, values)
    def test_two_step_rows_stochastic(self, k, lam, z1, z2):
        m = two_step_matrix(ModelParams(k, lam), z1, z2)
        assert m.p00 + m.p01 == pytest.approx(1.0, abs=1e-12)
        assert m.p10 + m.p11 == pytest.approx(1.0, abs=1e-12)
        for v in (m.p00, m.p01, m.p10, m.p11):
            assert -1e-12 <= v <= 1.0 + 1e-12

    @given(branchings, activities, values, values)
    def test_eigen_kappa_det_coincide(self, k, lam, z1, z2):
        # for these chains the second eigenvalue, the determinant, and the
        # total-variation contraction of the rows are all the same number
        m = two_step_matrix(ModelParams(k, lam), z1, z2)
        s2 = m.p00 + m.p11 - 1.0  # the other eigenvalue of a row-stochastic 2x2
        det = determinant(m)
        kappa = 0.5 * (abs(m.p00 - m.p10) + abs(m.p01 - m.p11))
        assert s2 == pytest.approx(det, abs=1e-13)
        assert kappa == pytest.approx(abs(s2), abs=1e-13)

    def test_two_step_known_value(self):
        # k=2, lam=4, z1=z2=1/4: u=v=1, entries (3/4, 1/4, 1/2, 1/2)
        m = two_step_matrix(ModelParams(2, 4.0), 0.25, 0.25)
        assert m.p00 == pytest.approx(0.75, abs=1e-15)
        assert m.p01 == pytest.approx(0.25, abs=1e-15)
        assert m.p10 == pytest.approx(0.5, abs=1e-15)
        assert m.p11 == pytest.approx(0.5, abs=1e-15)


class TestPackageNames:
    def test_all_is_the_union_of_the_submodules(self):
        import hctree
        from hctree import core, extremality, oracle, solvers, weakperiodic

        modules = (core, extremality, oracle, solvers, weakperiodic)
        names = [name for module in modules for name in module.__all__]
        assert len(names) == len(set(names))
        assert hctree.__all__ == sorted([*names, "__version__"])
        for module in modules:
            for name in module.__all__:
                assert getattr(hctree, name) is getattr(module, name)

    def test_public_api_is_pinned(self):
        # a name added to or dropped from the public API shows up here
        import hctree

        assert sorted(hctree.__all__) == [
            "BoundaryLaw", "ConvergenceError", "CriticalValues", "DomainError",
            "ENUMERATION_VERTEX_CAP", "ExtremalityReport", "FiniteBall", "InternalCheckError",
            "LawKind", "ModelParams", "RootDegree", "SOLVE_SETS", "SampleResult",
            "SizeCapError", "SolveReport", "Verdict",
            "WeakPeriodicParams", "WeakSolveReport", "__version__", "asymptotic_bound",
            "classify", "conditional_child_distribution", "consistency_check",
            "count_admissible", "critical_lambda", "critical_values", "discriminant_k3",
            "enumerate_admissible", "g_function", "h_function",
            "hard_core_violations", "k3_cubic_root", "lambda_pm",
            "lambda_star", "nonextremal_bound",
            "partition_function", "recursion_map", "report_for_law", "root_marginal", "s_pm",
            "sample_tree_chain", "solve_translation_invariant",
            "solve_two_periodic", "solve_two_periodic_k2_closed",
            "solve_two_periodic_k3_closed", "solve_weak_periodic",
            "translation_invariant_law", "two_periodic_law", "weak_periodic_law",
            "weak_system_map",
        ]
