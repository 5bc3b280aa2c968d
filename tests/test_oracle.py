"""Exact finite-volume cross-checks: counts, partition functions, sampling."""

import functools
import hashlib
import itertools
import math
import operator
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chain_reference import single_step_matrix, two_step_matrix
from hctree import cli, oracle
from hctree.core import (
    DomainError,
    InternalCheckError,
    ModelParams,
)
from hctree.oracle import (
    ENUMERATION_VERTEX_CAP,
    FiniteBall,
    RootDegree,
    SizeCapError,
    _require_ball_enumerable,
    conditional_child_distribution,
    consistency_check,
    count_admissible,
    enumerate_admissible,
    hard_core_violations,
    partition_function,
    root_marginal,
    sample_tree_chain,
)
from hctree.solvers import (
    solve_translation_invariant,
    solve_two_periodic,
    solve_two_periodic_k2_closed,
)


def frontier_ball(k, depth, root_degree):
    """(parent, level, children, leaves) of the ball, by a walk level by level."""
    parent, level, children, frontier = [-1], [0], [[]], [0]
    for lev in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for _ in range(k + 1 if v == 0 and root_degree is RootDegree.FULL else k):
                children[v].append(len(parent))
                nxt.append(len(parent))
                parent.append(v)
                level.append(lev)
                children.append([])
        frontier = nxt
    leaves = tuple(v for v in range(len(parent)) if level[v] == depth)
    return tuple(parent), tuple(level), tuple(map(tuple, children)), leaves


def use_cpus(monkeypatch, cpus):
    """Make the sampler see cpus usable CPUs, so it splits into up to cpus parts."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def alternating_assignment(ball, z1, z2):
    """z1 at odd levels, z2 at even levels (root included)."""
    return [z1 if lev % 2 == 1 else z2 for lev in ball.level]


class TestFiniteBall:
    def test_half_root_shape(self):
        b = FiniteBall(2, 3, RootDegree.HALF)
        assert b.n_vertices == 1 + 2 + 4 + 8
        assert b.level[0] == 0 and b.parent[0] == -1
        assert len(b.leaves) == 8
        assert all(b.level[v] == 3 for v in b.leaves)
        assert b.n_vertices - len(b.leaves) == 7  # levels 0..2 come first

    def test_full_root_shape(self):
        b = FiniteBall(2, 2, RootDegree.FULL)
        # root has k+1 = 3 children, each spawning k = 2
        assert b.n_vertices == 1 + 3 + 6
        assert len(b.children[0]) == 3
        assert all(len(b.children[c]) == 2 for c in b.children[0])

    @pytest.mark.parametrize("root", list(RootDegree))
    def test_closed_form_matches_frontier_walk(self, root):
        for k in (1, 2, 3, 4, 6):
            for depth in range(7):
                b = FiniteBall(k, depth, root)
                assert (b.parent, b.level, b.children, b.leaves) == frontier_ball(k, depth, root)
                assert b.n_vertices == len(b.parent)

    def test_parent_precedes_child(self):
        b = FiniteBall(3, 2, RootDegree.FULL)
        assert all(b.parent[v] < v for v in range(1, b.n_vertices))

    def test_path_graph(self):
        b = FiniteBall(1, 4)
        assert b.n_vertices == 5
        assert b.leaves == (4,)

    @pytest.mark.parametrize("root", list(RootDegree))
    def test_cap_from_closed_form_size(self, root):
        for k in (1, 2, 3, 4, 6):
            for depth in range(6):
                n = FiniteBall(k, depth, root).n_vertices
                if n <= ENUMERATION_VERTEX_CAP:
                    _require_ball_enumerable(k, depth, root)
                else:
                    with pytest.raises(SizeCapError, match=f"got {n}$"):
                        _require_ball_enumerable(k, depth, root)
        with pytest.raises(SizeCapError, match="got a ball of depth 1000000000$"):
            _require_ball_enumerable(2, 10**9, root)

    @pytest.mark.parametrize("k,depth", [(2, 20), (2, 10**9), (1, 2**21)])
    def test_vertex_cap_before_building(self, k, depth):
        with pytest.raises(SizeCapError, match="^a ball may have at most 1048576 vertices"):
            FiniteBall(k, depth)

    def test_depth_zero(self):
        b = FiniteBall(2, 0)
        assert b.n_vertices == 1
        assert b.leaves == (0,)

    @pytest.mark.parametrize("k,depth", [(0, 1), (2, -1), (2.0, 1), (2, 1.5)])
    def test_validation(self, k, depth):
        with pytest.raises(DomainError):
            FiniteBall(k, depth)


# independent-set counts, frozen from enumeration runs (the largest from the
# recursion alone, which the smaller cases validate against enumeration)
FROZEN_COUNTS = [
    (2, 0, RootDegree.HALF, 2),
    (1, 2, RootDegree.HALF, 5),
    (2, 1, RootDegree.FULL, 9),
    (2, 2, RootDegree.HALF, 41),
    (3, 1, RootDegree.FULL, 17),
    (3, 2, RootDegree.HALF, 1241),
    (2, 3, RootDegree.HALF, 2306),
    (2, 3, RootDegree.FULL, 84546),
    (2, 4, RootDegree.HALF, 8143397),
]


class TestAdmissibleCounts:
    @pytest.mark.parametrize("k,depth,deg,expected", FROZEN_COUNTS)
    def test_frozen(self, k, depth, deg, expected):
        ball = FiniteBall(k, depth, deg)
        assert count_admissible(ball) == expected

    def test_counts_match_enumeration_listing(self):
        ball = FiniteBall(2, 2)
        configs = list(enumerate_admissible(ball))
        assert len(configs) == 41
        assert len(set(configs)) == 41
        for config in configs:
            for v in range(1, ball.n_vertices):
                assert not (config[v] and config[ball.parent[v]])

    def test_enumeration_cap(self):
        ball = FiniteBall(2, 4, RootDegree.FULL)  # 46 vertices
        assert ball.n_vertices > ENUMERATION_VERTEX_CAP
        with pytest.raises(SizeCapError):
            count_admissible(ball, method="enumeration")
        # recursion has no cap
        assert count_admissible(ball, method="recursion") > 0

    def test_methods_agree(self):
        ball = FiniteBall(3, 2)
        assert count_admissible(ball, "enumeration") == count_admissible(ball, "recursion")

    def test_auto_cross_check_is_capped_by_configurations(self, monkeypatch):
        # 40 vertices pass the vertex cap, but 2.3e9 configurations are too
        # many to walk: "auto" must answer from the recursion alone
        def refuse(ball):
            raise AssertionError("enumerated")

        monkeypatch.setattr(oracle, "_count_enumeration", refuse)
        assert count_admissible(FiniteBall(3, 3)) == 2298661010

    def test_auto_partition_cross_check_is_capped_by_configurations(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(oracle, "_grouped_sums", refuse)
        ball = FiniteBall(3, 3)
        assert partition_function(ball, 1.0, 1.0) == count_admissible(ball)

    @pytest.mark.parametrize("call", [
        lambda b: next(enumerate_admissible(b)),
        lambda b: count_admissible(b, "enumeration"),
        lambda b: partition_function(b, 1.0, 1.0, "enumeration"),
        lambda b: root_marginal(b, 1.0, 1.0, "enumeration"),
        lambda b: consistency_check(b, 1.0, 0.5),
        lambda b: conditional_child_distribution(b, 1.0, 0.5, 0),
    ], ids=["enumerate_admissible", "count_admissible", "partition_function", "root_marginal",
            "consistency_check", "conditional_child_distribution"])
    def test_enumeration_refused_above_the_configuration_cap(self, call, monkeypatch):
        # 40 vertices pass the vertex cap, but 2.3e9 configurations do not
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(oracle, "_key_blocks", refuse)
        with pytest.raises(SizeCapError, match="^enumeration supports at most 16777216 "
                                               "configurations, got 2298661010$"):
            call(FiniteBall(3, 3))

    def test_auto_still_cross_checks_below_the_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_count_enumeration", lambda ball: 0)
        with pytest.raises(InternalCheckError):
            count_admissible(FiniteBall(2, 4))


class TestPartitionFunction:
    def test_depth_zero_convention(self):
        ball = FiniteBall(2, 0)
        assert partition_function(ball, 2.0, 0.5) == pytest.approx(2.0)

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40)
    def test_k2_depth1_closed_form(self, lam, z):
        # root free: (1 + lam z)**3; root occupied: lam
        ball = FiniteBall(2, 1, RootDegree.FULL)
        expected = lam + (1.0 + lam * z) ** 3
        assert partition_function(ball, lam, z) == pytest.approx(expected, rel=1e-12)

    def test_exact_rational_arithmetic(self):
        ball = FiniteBall(2, 1, RootDegree.FULL)
        z = partition_function(ball, Fraction(2), Fraction(7, 10))
        assert isinstance(z, Fraction)
        assert z == Fraction(2) + (1 + Fraction(2) * Fraction(7, 10)) ** 3

    def test_methods_cross_check(self):
        ball = FiniteBall(2, 2)
        a = partition_function(ball, 1.5, 0.3, method="enumeration")
        b = partition_function(ball, 1.5, 0.3, method="recursion")
        assert a == pytest.approx(b, rel=1e-13)

    def test_float_cross_check_holds_on_a_larger_ball(self):
        # the two methods agree to about 1e-15 here; a naive float sum over
        # the enumeration drifted 1.35e-12 apart and failed the 1e-12 check
        ball = FiniteBall(4, 2)
        total = partition_function(ball, 0.3, 0.3)
        assert total == pytest.approx(partition_function(ball, 0.3, 0.3, method="enumeration"),
                                      rel=1e-14)

    def test_rejects_bad_activity(self):
        with pytest.raises(DomainError):
            partition_function(FiniteBall(2, 1), 0.0, 0.5)

    def test_int_weights_stay_exact(self):
        # 7**22 and its sums overflow an int64
        ball = FiniteBall(2, 3, RootDegree.FULL)
        assert (partition_function(ball, 7, 5, "enumeration")
                == partition_function(ball, 7, 5, "recursion") == 2470177087919607459464)

    def test_float_power_past_the_float_range_is_named(self):
        # auto mode cross-checks with the enumeration, whose table holds lam**22
        ball = FiniteBall(2, 3, RootDegree.FULL)
        with pytest.raises(OverflowError) as info:
            partition_function(ball, 1e15, 1.0)
        assert str(info.value) == ("weight 1000000000000000.0 to the power 22 overflows a "
                                   "float; int or Fraction weights have no such limit")
        assert (partition_function(ball, 10**15, 1, "enumeration")
                == partition_function(ball, 10**15, 1, "recursion"))

    def test_per_vertex_and_mapping_boundaries(self):
        ball = FiniteBall(2, 1)
        by_scalar = partition_function(ball, 2.0, 0.5)
        by_list = partition_function(ball, 2.0, [9.9, 0.5, 0.5])  # non-leaf entries ignored
        by_map = partition_function(ball, 2.0, {1: 0.5, 2: 0.5})
        assert by_scalar == pytest.approx(by_list, rel=1e-14)
        assert by_scalar == pytest.approx(by_map, rel=1e-14)


class TestRootMarginal:
    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40)
    def test_k2_depth1_closed_form(self, lam, z):
        ball = FiniteBall(2, 1, RootDegree.FULL)
        expected = lam / (lam + (1.0 + lam * z) ** 3)
        assert root_marginal(ball, lam, z) == pytest.approx(expected, rel=1e-12)

    def test_methods_agree(self):
        ball = FiniteBall(2, 2)
        a = root_marginal(ball, 3.0, 0.4, method="enumeration")
        b = root_marginal(ball, 3.0, 0.4, method="recursion")
        assert a == pytest.approx(b, rel=1e-13)

    def test_depth_invariance_at_fixed_point(self):
        # with the solved boundary value the root marginal does not depend on
        # the ball's depth
        lam = 5.0
        z = solve_translation_invariant(ModelParams(2, lam))
        marginals = [
            root_marginal(FiniteBall(2, d), lam, z) for d in (1, 2, 3)
        ]
        expected = lam * z / (1 + lam * z)
        for m in marginals:
            assert m == pytest.approx(expected, rel=1e-12)


class TestConsistency:
    @pytest.mark.parametrize("k,depth", [(2, 2), (2, 3), (3, 2)])
    def test_invariant_fixed_point_consistent(self, k, depth):
        lam = 2.5
        z = solve_translation_invariant(ModelParams(k, lam))
        assert consistency_check(FiniteBall(k, depth), lam, z) < 1e-12

    def test_alternating_pair_consistent(self):
        lam = 5.0
        z1, z2 = solve_two_periodic_k2_closed(lam)
        ball = FiniteBall(2, 3)
        assignment = alternating_assignment(ball, z1, z2)
        assert consistency_check(ball, lam, assignment) < 1e-10

    @pytest.mark.parametrize("k,depth,root,lam", [
        (2, 3, "full", 5.0), (3, 2, "half", 2.0), (3, 2, "full", 2.0), (4, 2, "half", 2.0),
    ])
    def test_solved_laws_consistent_to_rounding(self, k, depth, root, lam):
        # summed per weight class, a solved law's deviation is a few ulps
        ball = FiniteBall(k, depth, root)
        params = ModelParams(k, lam)
        z1, z2 = solve_two_periodic(params).solutions[-1].values
        assert consistency_check(ball, lam, solve_translation_invariant(params)) <= 1e-15
        assert consistency_check(ball, lam, alternating_assignment(ball, z1, z2)) <= 1e-15

    def test_perturbed_value_inconsistent(self):
        lam = 2.5
        z = solve_translation_invariant(ModelParams(2, lam)) + 0.1
        assert consistency_check(FiniteBall(2, 3), lam, z) > 1e-3

    def test_depth_zero_rejected(self):
        with pytest.raises(DomainError):
            consistency_check(FiniteBall(2, 0), 1.0, 0.5)


class TestConditionalDistribution:
    def test_occupied_parent_forces_empty_child(self):
        ball = FiniteBall(2, 2)
        p0, p1 = conditional_child_distribution(ball, 3.0, 0.7, parent_spin=1)
        assert (p0, p1) == (1, 0)

    def test_free_parent_known_value(self):
        # k=2, lam=4, z=1/4: odds of the child being occupied are exactly 1
        ball = FiniteBall(2, 2)
        p0, p1 = conditional_child_distribution(ball, 4.0, 0.25, parent_spin=0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_one_step_rows_match_matrix(self):
        lam = 5.0
        z1, z2 = solve_two_periodic_k2_closed(lam)
        ball = FiniteBall(2, 3)
        assignment = alternating_assignment(ball, z1, z2)
        m = single_step_matrix(ModelParams(2, lam), z1)
        for spin in (0, 1):
            got = conditional_child_distribution(ball, lam, assignment, spin, steps=1)
            want = (m.p00, m.p01) if spin == 0 else (m.p10, m.p11)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_two_step_rows_match_matrix(self):
        lam = 5.0
        z1, z2 = solve_two_periodic_k2_closed(lam)
        ball = FiniteBall(2, 3)
        assignment = alternating_assignment(ball, z1, z2)
        m = two_step_matrix(ModelParams(2, lam), z1, z2)
        for spin in (0, 1):
            got = conditional_child_distribution(ball, lam, assignment, spin, steps=2)
            want = (m.p00, m.p01) if spin == 0 else (m.p10, m.p11)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_argument_validation(self):
        ball = FiniteBall(2, 2)
        with pytest.raises(DomainError):
            conditional_child_distribution(ball, 1.0, 0.5, 0, steps=3)
        with pytest.raises(DomainError):
            conditional_child_distribution(ball, 1.0, 0.5, 2)
        with pytest.raises(DomainError):
            conditional_child_distribution(FiniteBall(2, 1), 1.0, 0.5, 0)


class TestSampler:
    def test_deterministic_given_seed(self):
        p = ModelParams(2, 5.0)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        a = sample_tree_chain(p, z1, z2, depth=3, count=64, seed=7)
        b = sample_tree_chain(p, z1, z2, depth=3, count=64, seed=7)
        assert np.array_equal(a.spins, b.spins)
        c = sample_tree_chain(p, z1, z2, depth=3, count=64, seed=8)
        assert not np.array_equal(a.spins, c.spins)

    def test_no_adjacent_occupation(self):
        p = ModelParams(3, 2.0)
        z = solve_translation_invariant(p)
        res = sample_tree_chain(p, z, z, depth=3, count=500, seed=11)
        assert res.spins.shape == (500, res.ball.n_vertices)
        assert hard_core_violations(res.ball, res.spins) == 0

    def test_violation_counter_detects_planted_pair(self):
        ball = FiniteBall(2, 1)
        spins = np.zeros((1, ball.n_vertices), dtype=np.int8)
        spins[0, 0] = 1
        spins[0, ball.children[0][0]] = 1
        assert hard_core_violations(ball, spins) == 1

    def test_violation_counter_reads_any_nonzero_spin_as_occupied(self):
        # 2 & 1 is 0, so a bitwise AND would miss this pair
        assert hard_core_violations(FiniteBall(2, 1), np.array([[2, 1, 0]], np.int8)) == 1

    def test_violation_counter_sums_over_row_blocks(self, monkeypatch):
        # one planted pair per sample, counted across blocks of two samples
        ball = FiniteBall(2, 2)
        spins = np.zeros((7, ball.n_vertices), dtype=np.int8)
        spins[:, 1] = spins[:, ball.children[1][1]] = 1
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 2 * ball.n_vertices)
        assert hard_core_violations(ball, spins) == 7
        assert hard_core_violations(ball, spins[0]) == 1

    def test_metadata_documents_run(self):
        p = ModelParams(2, 5.0)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        res = sample_tree_chain(p, z1, z2, depth=2, count=4, seed=3)
        assert res.metadata["seed"] == 3
        assert "generator" in res.metadata

    def test_root_frequency_close_to_stationary(self):
        p = ModelParams(2, 5.0)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        n = 40000
        res = sample_tree_chain(p, z1, z2, depth=2, count=n, seed=123)
        m = two_step_matrix(p, z1, z2)
        pi1 = m.p01 / (m.p01 + m.p10)
        freq = float(res.spins[:, 0].mean())
        sigma = (pi1 * (1 - pi1) / n) ** 0.5
        assert abs(freq - pi1) < 4 * sigma

    def test_argument_validation(self):
        p = ModelParams(2, 5.0)
        with pytest.raises(DomainError):
            sample_tree_chain(p, 0.1, 0.1, depth=0, count=1, seed=0)
        with pytest.raises(DomainError):
            sample_tree_chain(p, 0.1, 0.1, depth=1, count=0, seed=0)
        for z in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                sample_tree_chain(p, z, 0.1, depth=1, count=1, seed=0)
            with pytest.raises(DomainError):
                sample_tree_chain(p, 0.1, z, depth=1, count=1, seed=0)


class TestNonFiniteInputs:
    CALLS = {
        "partition_function": lambda ball, lam, z: partition_function(ball, lam, z),
        "partition_enumeration": lambda ball, lam, z: partition_function(
            ball, lam, z, method="enumeration"),
        "root_marginal": lambda ball, lam, z: root_marginal(ball, lam, z),
        "root_marginal_enumeration": lambda ball, lam, z: root_marginal(
            ball, lam, z, method="enumeration"),
        "consistency_check": consistency_check,
        "conditional_child_distribution": lambda ball, lam, z: conditional_child_distribution(
            ball, lam, z, 0),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_activity_refused(self, call, bad):
        with pytest.raises(DomainError, match="activity must be positive and finite"):
            self.CALLS[call](FiniteBall(2, 2), bad, 0.5)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_boundary_weight_refused(self, call, bad):
        ball = FiniteBall(2, 2)
        with pytest.raises(DomainError, match="must be positive and finite"):
            self.CALLS[call](ball, 1.0, bad)
        with pytest.raises(DomainError, match="must be positive and finite"):
            self.CALLS[call](ball, 1.0, [0.5] * (ball.n_vertices - 1) + [bad])

    @pytest.mark.parametrize("call,match", [
        (partition_function, "boundary weight at vertex 2"),
        (consistency_check, "assignment at vertex 2"),
    ])
    def test_mapping_boundary_refused(self, call, match):
        ball = FiniteBall(2, 1)
        with pytest.raises(DomainError, match=match):
            call(ball, 1.0, {0: 0.5, 1: 0.5, 2: math.nan})

    @pytest.mark.parametrize("call", CALLS)
    def test_per_vertex_assignment_covers_every_vertex(self, call):
        ball = FiniteBall(2, 2)
        with pytest.raises(DomainError, match="must cover all 7 vertices, got 6"):
            self.CALLS[call](ball, 1.0, [0.5] * 6)

    @pytest.mark.parametrize("call", [
        lambda b: count_admissible(b, "magic"),
        lambda b: partition_function(b, 1.0, 1.0, "magic"),
        lambda b: root_marginal(b, 1.0, 1.0, "magic"),
    ], ids=["count_admissible", "partition_function", "root_marginal"])
    def test_unknown_method_refused(self, call):
        with pytest.raises(DomainError, match=r"^unknown (counting|partition|marginal) "
                                              r"method 'magic'$"):
            call(FiniteBall(2, 2))

    @pytest.mark.parametrize("call", CALLS)
    def test_exact_types_still_accepted(self, call):
        ball = FiniteBall(2, 2)
        result = self.CALLS[call](ball, Fraction(3, 2), Fraction(1, 3))
        assert all(isinstance(x, Fraction)
                   for x in (result if isinstance(result, tuple) else (result,)))
        self.CALLS[call](ball, 2, 1)


def _ball_cases():
    return [FiniteBall(1, 5), FiniteBall(2, 2), FiniteBall(2, 2, RootDegree.FULL),
            FiniteBall(3, 2), FiniteBall(2, 3)]


def _enumeration_cases():
    """_ball_cases plus paths, depths 0 and 1 and wide full-root balls."""
    return [*_ball_cases(), FiniteBall(1, 3, RootDegree.FULL), FiniteBall(2, 0),
            FiniteBall(3, 1), FiniteBall(4, 1, RootDegree.FULL), FiniteBall(3, 2, RootDegree.FULL)]


def _brute_force(n_vertices, parent):
    """Admissible 0/1 tuples of vertices 0..n_vertices-1, lexicographic.

    Every parent comes before its child, so the tuples grow one vertex at a
    time: each prefix takes a 0, then a 1 where the vertex is the root or
    its parent is 0, and the list stays in lexicographic order.
    """
    configs = [()]
    for v in range(n_vertices):
        configs = [c + (s,) for c in configs for s in (0, 1)
                   if not (s and v and c[parent[v]])]
    return configs


def _product_filter(n_vertices, parent):
    """_brute_force by filtering all 2**n_vertices tuples, for small balls."""
    return [config for config in itertools.product((0, 1), repeat=n_vertices)
            if not any(config[v] and config[parent[v]] for v in range(1, n_vertices))]


@pytest.mark.parametrize("ball", _enumeration_cases(), ids=repr)
def test_brute_force_equals_the_product_filter(ball):
    assert all(ball.parent[v] < v for v in range(1, ball.n_vertices))
    assert _brute_force(ball.n_vertices, ball.parent) == _product_filter(ball.n_vertices,
                                                                         ball.parent)


def _scalar_sums(n_vertices, parent, lam, leaves, shift):
    """{label: weight sum}, the label being the spins of vertices
    0..n_vertices-shift-1, one configuration at a time: configurations are
    counted per key (label, occupied vertices, occupied leaves of each
    distinct (type, boundary weight)), each key's weight is formed once, and
    each label adds count * weight one at a time in ascending key order."""
    classes = {}
    for v, z in leaves.items():
        classes.setdefault((type(z), z), []).append(v)
    counts = {}
    for c in _brute_force(n_vertices, parent):
        key = (c[:n_vertices - shift], sum(c), *(sum(c[v] for v in vs) for vs in classes.values()))
        counts[key] = counts.get(key, 0) + 1
    terms = {}
    for key in sorted(counts):
        label, occupied, *js = key
        w = lam ** occupied
        for (_, z), j in zip(classes, js):
            if j:
                w = w * z ** j
        terms.setdefault(label, []).append(counts[key] * w)
    return {label: functools.reduce(operator.add, t) for label, t in terms.items()}


def _scalar_consistency(ball, lam, zs):
    """consistency_check by _scalar_sums, in the inputs' own arithmetic:
    float and exact weights meet only where a sum or a product mixes them."""
    m = sum(1 for lev in ball.level if lev < ball.depth)
    leaves_n = {v: zs[v] for v in ball.leaves}
    leaves_m = {v: zs[v] for v in range(m) if ball.level[v] == ball.depth - 1}
    grouped = list(_scalar_sums(ball.n_vertices, ball.parent, lam, leaves_n,
                                ball.n_vertices - m).values())
    inner = list(_scalar_sums(m, ball.parent, lam, leaves_m, 0).values())
    total_n, total_m = sum(grouped), sum(inner)
    return max(abs(a / total_n - b / total_m) for a, b in zip(grouped, inner))


class TestEnumerationBlocks:
    """The enumeration and the sampler work in blocks; their size must not
    change a count, a configuration, the order or a single float bit."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)

    @pytest.mark.parametrize("rows", [3, 64, oracle._BLOCK_ROWS])
    @pytest.mark.parametrize("ball", _enumeration_cases(), ids=repr)
    def test_listing_is_the_lexicographic_brute_force(self, ball, rows, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        assert list(enumerate_admissible(ball)) == _brute_force(ball.n_vertices, ball.parent)

    @pytest.mark.parametrize("ball", _ball_cases(), ids=repr)
    def test_float_results_equal_a_scalar_loop(self, ball, tiny_blocks):
        # one weight per key, added per label in ascending key order
        lam, n = 1.7, ball.n_vertices
        zs = [0.2 + 0.1 * v for v in range(n)]
        leaves = {v: zs[v] for v in ball.leaves}
        got = partition_function(ball, lam, zs, method="enumeration")
        assert type(got) is float
        assert got == _scalar_sums(n, ball.parent, lam, leaves, n)[()]

        free, occupied = _scalar_sums(n, ball.parent, lam, leaves, n - 1).values()
        assert root_marginal(ball, lam, zs, method="enumeration") == occupied / (free + occupied)

        assert consistency_check(ball, lam, zs) == _scalar_consistency(ball, lam, zs)

        target = ball.children[ball.children[0][0]][0]
        sums = _scalar_sums(n, ball.parent, lam, leaves, n - 1 - target)
        for spin in (0, 1):
            cond = [(label, w) for label, w in sums.items() if label[0] == spin]
            p1 = sum(w for label, w in cond if label[-1]) / sum(w for _, w in cond)
            assert conditional_child_distribution(ball, lam, zs, spin, steps=2) == (1 - p1, p1)

    @pytest.mark.parametrize("rows", [3, 64, oracle._BLOCK_ROWS])
    @pytest.mark.parametrize("ball", _enumeration_cases(), ids=repr)
    def test_counting_equals_the_listing(self, ball, rows, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        assert count_admissible(ball, "enumeration") == len(list(enumerate_admissible(ball)))

    @pytest.mark.parametrize("rows", [3, 64, oracle._BLOCK_ROWS])
    @pytest.mark.parametrize("ball", _enumeration_cases(), ids=repr)
    def test_blocks_are_bounded_and_ascending(self, ball, rows, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        n = ball.n_vertices
        # the extension table adds vertices whose parents come before them;
        # it has at most _BLOCK_ROWS // 2 cells, patterns times values, and
        # its keys fit in them. Keyed by the masks, each value is its own
        # key, ascending per pattern
        tail, keys, counts, offsets = oracle._extension_table(n, ball.parent, lambda m: m)
        assert all(ball.parent[v] < tail for v in range(tail, n))
        assert len(keys) <= (len(offsets) - 1) << (n - tail) <= max(1, rows // 2)
        assert len(keys) == len(counts) == offsets[-1] and np.all(counts == 1)
        assert all(np.all(np.diff(keys[a:b]) > 0) for a, b in zip(offsets, offsets[1:]))
        assert all(len(masks) <= rows for masks, _ in oracle._key_blocks(n, ball.parent,
                                                                          lambda m: m))
        # keyed by its prefix alone, a prefix's rows come together, and where
        # the table is grouped (over 2**n > _BLOCK_ROWS raw states) they are
        # one row counting its extensions
        blocks = list(oracle._key_blocks(n, ball.parent, lambda m: m >> n - tail << n - tail))
        assert all(1 <= len(keys) == len(counts) <= rows for keys, counts in blocks)
        prefixes, counts = map(np.concatenate, zip(*blocks))
        assert np.all(np.diff(prefixes) > (0 if 1 << n > rows else -1))
        assert np.all(counts >= 1)
        assert counts.sum() == count_admissible(ball, "recursion")

    def test_distinct_weights_memory_is_bounded(self):
        # every leaf its own weight class, so nearly every configuration is
        # its own key: each label is summed and dropped once the enumeration
        # has passed it
        ball = FiniteBall(2, 4)
        tracemalloc.start()
        try:
            consistency_check(ball, 1.7, [0.2 + 0.01 * v for v in range(ball.n_vertices)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    @pytest.mark.parametrize("ball", [FiniteBall(4, 2, RootDegree.FULL), FiniteBall(2, 4)],
                             ids=repr)
    def test_enumeration_memory_is_bounded(self, ball):
        # the per-vertex enumeration peaked at 1.65 and 1.76 MB here; an
        # unbounded table on FiniteBall(4, 2, "full") would hold 2**25 cells
        tracemalloc.start()
        try:
            count_admissible(ball, "enumeration")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def _results(self, ball):
        lam, z = 1.7, [0.2 + 0.1 * v for v in range(ball.n_vertices)]
        third = Fraction(3, 10)
        return [
            list(enumerate_admissible(ball)),
            count_admissible(ball, "enumeration"),
            partition_function(ball, lam, z, method="enumeration"),
            partition_function(ball, third, third, method="enumeration"),
            root_marginal(ball, lam, z, method="enumeration"),
            root_marginal(ball, third, third, method="enumeration"),
            consistency_check(ball, lam, z),
            consistency_check(ball, third, third),
            *(conditional_child_distribution(ball, lam, z, spin, steps)
              for spin in (0, 1) for steps in (1, 2)),
            *(conditional_child_distribution(ball, third, third, spin, steps)
              for spin in (0, 1) for steps in (1, 2)),
        ]

    @pytest.mark.parametrize("ball", [FiniteBall(2, 2), FiniteBall(3, 2, RootDegree.FULL),
                                      FiniteBall(2, 3)], ids=repr)
    def test_results_equal_the_unsplit_run(self, ball, monkeypatch):
        unsplit = self._results(ball)
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 3)
        assert self._results(ball) == unsplit  # floats compared with ==

    @pytest.mark.parametrize("ball", [FiniteBall(2, 2), FiniteBall(2, 3, RootDegree.FULL)],
                             ids=repr)
    @pytest.mark.parametrize("floats_at", ["leaves", "level above"])
    def test_mixed_types_follow_each_enumeration(self, ball, floats_at, tiny_blocks):
        # exact activity and weights on one side of the consistency check,
        # float boundary weights on the other: each side keeps its own
        # arithmetic, as a scalar loop does
        leaf_level = ball.depth if floats_at == "leaves" else ball.depth - 1
        zs = [0.2 + 0.1 * v if ball.level[v] == leaf_level else Fraction(v + 2, 7)
              for v in range(ball.n_vertices)]
        got = consistency_check(ball, Fraction(17, 10), zs)
        assert type(got) is float
        assert got == _scalar_consistency(ball, Fraction(17, 10), zs)

    def test_equal_int_and_fraction_weights_stay_apart(self):
        # an int and an equal Fraction boundary weight are not merged, so a
        # Fraction leaf makes the sum a Fraction, as in a scalar loop
        ball = FiniteBall(2, 2)
        zs = [1, 1, 1, 3, Fraction(3), 5, 7]
        got = partition_function(ball, 2, zs, method="enumeration")
        assert type(got) is Fraction
        assert got == partition_function(ball, 2, zs, method="recursion")
        assert consistency_check(ball, 2, zs) == _scalar_consistency(ball, 2, zs)

    def test_sampler_spins_equal_the_unsplit_run(self, monkeypatch):
        p = ModelParams(3, 2.0)
        z = solve_translation_invariant(p)
        unsplit = sample_tree_chain(p, z, z, depth=3, count=50, seed=5, root_degree="full")
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)  # one row of 53 vertices a block
        split = sample_tree_chain(p, z, z, depth=3, count=50, seed=5, root_degree="full")
        assert np.array_equal(split.spins, unsplit.spins)

    # any split of the samples draws the same stream. 64 samples of 15
    # vertices hold 24 blocks of 40 uniforms: 1, 2, 3 or 5 parts (3 and 5
    # do not divide 64), whose blocks of 40 // parts uniforms make rows of
    # 2, 1, 1 and 1 samples, the last two shorter than one sample. They
    # hold 2 blocks of 381, so at most 2 parts, and one default block, so
    # one part
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("block", [40, 381, 1 << 18])
    def test_sampler_spins_equal_the_recorded_digest(self, block, cpus, monkeypatch):
        # digest of the spins drawn by one rng.random((count, n)) call and a
        # vertex-by-vertex fill
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
        use_cpus(monkeypatch, cpus)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        res = sample_tree_chain(ModelParams(2, 5.0), z1, z2, depth=3, count=64, seed=7)
        assert hashlib.sha256(res.spins.tobytes()).hexdigest() == (
            "1fe339856d35d2168e29ca46f78b1b020e6157457343a483a7831098ceede666")

    # 381 uniforms make blocks of 7 rows (k=3) and 3 rows (k=2), each run
    # ending in a block of 1; split into 2, 3 or 5 parts, each part's
    # 190, 127 or 76 uniforms make blocks of 3, 2 or 1 rows (k=3) and of 1
    # row (k=2), and 3 and 5 parts split neither 50 nor 1000 samples evenly
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("block", [40, 381, 1 << 18])
    @pytest.mark.parametrize("k,lam,depth,count,seed,root,digest", [
        (3, 2.0, 3, 50, 5, "full",
         "68036739cf4aad819b9048f40a7c6a94ac67e19a5d6316841347e607daf43967"),
        (2, 5.0, 6, 1000, 7, "half",
         "ee5658067fc3345020cdc574f603330fc1d33790d82c1446c8d0ef4892b280d8"),
    ], ids=["k3-depth3-full", "k2-depth6"])
    def test_sampler_spins_equal_more_recorded_digests(self, k, lam, depth, count, seed, root,
                                                        digest, block, cpus, monkeypatch):
        # digests recorded from a vertex-by-vertex fill of one
        # rng.random((count, n)) draw, as above
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
        use_cpus(monkeypatch, cpus)
        p = ModelParams(k, lam)
        z1, z2 = (solve_two_periodic_k2_closed(lam) if k == 2
                  else (solve_translation_invariant(p),) * 2)
        res = sample_tree_chain(p, z1, z2, depth=depth, count=count, seed=seed, root_degree=root)
        assert res.spins.dtype == np.int8
        # stored vertex-major: the (count, n) spins are the transpose of a
        # C-contiguous (n, count) array, and tobytes() still reads them by sample
        assert res.spins.shape == (count, res.ball.n_vertices)
        assert res.spins.T.flags.c_contiguous
        assert hashlib.sha256(res.spins.tobytes()).hexdigest() == digest

    # 45 uniforms make blocks of 3 samples of 15 vertices, the last one of 1
    @pytest.mark.parametrize("block", [45, 1 << 18])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.int8, bool, np.int64])
    def test_violation_counts_on_any_zero_one_array(self, dtype, order, block, monkeypatch):
        # random 0/1 rows, not hard-core: 114 adjacent occupied pairs in all,
        # 3 in row 5, counted from int8, bool and int64 spins alike, in
        # either memory order, in column blocks of any size
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
        ball = FiniteBall(2, 3)
        spins = np.random.default_rng(2021).integers(0, 2, (37, ball.n_vertices)).astype(dtype)
        spins = np.asarray(spins, order=order)
        brute = sum(int(row[v] and row[ball.parent[v]])
                    for row in spins.tolist() for v in range(1, ball.n_vertices))
        assert hard_core_violations(ball, spins) == brute == 114
        assert hard_core_violations(ball, spins[5]) == 3
        # 36 samples as 4 x 9
        cube = np.asarray(spins[:36].reshape(4, 9, -1), order=order)
        assert hard_core_violations(ball, cube) == hard_core_violations(ball, spins[:36])
        # a depth-0 ball has no edges
        assert hard_core_violations(FiniteBall(2, 0), spins[:, :1]) == 0

    @pytest.mark.parametrize("shape", [(), (14,), (5, 16), (3, 5, 14), (15, 4)])
    def test_violation_counter_refuses_a_wrong_vertex_count(self, shape):
        with pytest.raises(DomainError, match="spins must have 15 vertices along the last axis"):
            hard_core_violations(FiniteBall(2, 3), np.zeros(shape, dtype=np.int8))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, complex, object, "U1"])
    def test_violation_counter_refuses_a_non_integer_dtype(self, dtype):
        with pytest.raises(DomainError, match="spins must be bool or integer"):
            hard_core_violations(FiniteBall(2, 3), np.zeros((4, 15), dtype=dtype))

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_sampler_and_violation_count_memory(self, parts, monkeypatch):
        # the spins plus one block of uniforms and its comparison, shared by
        # all parts; the count holds one gathered column block and its AND.
        # A full-size temporary, a full block per part or a copy of the spins
        # to another memory order fails either bound
        use_cpus(monkeypatch, parts)  # 100,000 samples of 127 vertices are 48 blocks
        p = ModelParams(2, 5.0)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        tracemalloc.start()
        try:
            res = sample_tree_chain(p, z1, z2, depth=6, count=100_000, seed=1)
            sampled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert hard_core_violations(res.ball, res.spins) == 0
            counted = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert sampled < res.spins.nbytes + (4 << 20)
        assert counted < 1 << 20


class TestSamplerArguments:
    @pytest.mark.parametrize("name,value,message", [
        ("count", True, "count must be an integer, got True"),
        ("count", 2.5, "count must be an integer, got 2.5"),
        ("count", 0, "count must be >= 1, got 0"),
        ("depth", True, "depth must be an integer, got True"),
        ("depth", 2.0, "depth must be an integer, got 2.0"),
        ("depth", 0, "depth must be >= 1, got 0"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("seed", True, "seed must be an integer >= 0, got True"),
        ("seed", 2.5, "seed must be an integer >= 0, got 2.5"),
        ("seed", None, "seed must be an integer >= 0, got None")])
    def test_refused_before_the_ball_is_built(self, name, value, message, monkeypatch):
        def no_ball(*args):
            raise AssertionError("built a ball before checking the arguments")

        monkeypatch.setattr(oracle, "FiniteBall", no_ball)
        args = {"depth": 2, "count": 4, "seed": 0, name: value}
        with pytest.raises(DomainError, match=f"^{message}$"):
            sample_tree_chain(ModelParams(2, 5.0), 0.1, 0.1, **args)

    def test_huge_seed_is_accepted_and_split_like_one_part(self, monkeypatch):
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)
        p = ModelParams(2, 5.0)
        use_cpus(monkeypatch, 1)
        serial = sample_tree_chain(p, 0.1, 0.1, depth=3, count=64, seed=10**41)
        use_cpus(monkeypatch, 3)
        split = sample_tree_chain(p, 0.1, 0.1, depth=3, count=64, seed=10**41)
        assert np.array_equal(split.spins, serial.spins)
        assert split.metadata["seed"] == 10**41


    # 2047 vertices at depth 10: the largest count under 2**28 spins is 131,136
    @pytest.mark.parametrize("count,allowed", [(131_136, True), (131_137, False)])
    def test_spin_cap_checked_before_allocating(self, count, allowed, monkeypatch):
        class Allocated(Exception):
            pass

        def no_zeros(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(oracle.np, "zeros", no_zeros)
        with pytest.raises(Allocated if allowed else SizeCapError):
            sample_tree_chain(ModelParams(2, 5.0), 0.1, 0.1, depth=10, count=count, seed=0)


def streamed(*args):
    """(violations, metadata) of the CLI sampler's draw, counted block by block."""
    _, spins, violations, metadata = oracle._draw(*args, False)
    assert spins is None
    return violations, metadata


class TestSamplerThreads:
    @pytest.fixture
    def generators(self, monkeypatch):
        """The threads that made a generator; "main" or "worker" in fail
        makes that thread raise PartFailed instead."""
        made, fail, real = [], set(), np.random.Generator

        def generator(bits):
            made.append(threading.current_thread())
            if ("main" if made[-1] is threading.main_thread() else "worker") in fail:
                raise PartFailed
            return real(bits)

        monkeypatch.setattr(oracle.np.random, "Generator", generator)
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)
        return made, fail

    # the kept spins of sample_tree_chain and the count the CLI streams
    @pytest.fixture(params=[sample_tree_chain, streamed], ids=["kept", "streamed"])
    def draw(self, request):
        return request.param

    def test_parts_run_in_threads_that_end_with_the_call(self, generators, draw, monkeypatch):
        made, _ = generators
        use_cpus(monkeypatch, 3)
        before = threading.active_count()
        draw(ModelParams(2, 5.0), 0.1, 0.1, 3, 64, 7, "half")
        assert threading.active_count() == before
        # part 0 in the calling thread, parts 1 and 2 in threads of their own
        assert threading.main_thread() in made
        assert len(set(made)) == len(made) == 3

    def test_one_part_starts_no_thread(self, generators, draw, monkeypatch):
        made, _ = generators
        use_cpus(monkeypatch, 1)
        draw(ModelParams(2, 5.0), 0.1, 0.1, 3, 64, 7, "half")
        assert made == [threading.main_thread()]

    @pytest.mark.parametrize("failing", ["main", "worker"])
    def test_a_failed_part_reaches_the_caller_after_every_part_ends(self, generators, draw,
                                                                    failing, monkeypatch):
        _, fail = generators
        fail.add(failing)
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(PartFailed):
            draw(ModelParams(2, 5.0), 0.1, 0.1, 3, 64, 7, "half")
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["main", "worker"])
    def test_a_failed_part_reaches_the_cli_caller(self, generators, failing, monkeypatch):
        _, fail = generators
        fail.add(failing)
        use_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(PartFailed):
            cli.main(["oracle", "-k", "2", "-l", "5", "-n", "3", "--mode", "sample",
                      "--samples", "64"])
        assert threading.active_count() == before


class TestStreamedViolations:
    # as in the digest tests: 40 and 381 uniforms make blocks of 1 to 7 rows,
    # split over 1, 2, 3 or 5 parts; no count below is a multiple of 3 or 5,
    # and 101 and 77 are odd. Without the level fill occupied children
    # survive their parents, so a stream that counts nothing fails
    @pytest.mark.parametrize("level_fill", [True, False], ids=["hard-core", "no-level-fill"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("block", [40, 381, 1 << 18])
    @pytest.mark.parametrize("k,lam,depth,count,seed,root", [
        (2, 5.0, 3, 64, 7, "half"),
        (2, 5.0, 4, 101, 3, "full"),
        (3, 2.0, 3, 50, 5, "full"),
        (3, 2.0, 2, 77, 11, "half"),
    ], ids=["k2-half", "k2-full", "k3-full", "k3-half"])
    def test_streamed_count_equals_the_count_of_the_kept_spins(
            self, k, lam, depth, count, seed, root, block, cpus, level_fill, monkeypatch):
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
        use_cpus(monkeypatch, cpus)
        p = ModelParams(k, lam)
        z1, z2 = (solve_two_periodic_k2_closed(lam) if k == 2
                  else (solve_translation_invariant(p),) * 2)
        if not level_fill:
            monkeypatch.setattr(oracle.np, "greater", lambda children, parents, out: out)
        args = (p, z1, z2, depth, count, seed, root)
        kept = sample_tree_chain(*args)
        violations, metadata = streamed(*args)
        assert violations == hard_core_violations(kept.ball, kept.spins)
        assert (violations > 0) is not level_fill
        assert metadata == kept.metadata

    def test_parts_keep_their_counts_under_frequent_thread_switches(self, monkeypatch):
        # five parts on fewer cores, 400 one-sample blocks each, switching
        # threads every microsecond: a count lost between parts would show
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)
        monkeypatch.setattr(oracle.np, "greater", lambda children, parents, out: out)
        use_cpus(monkeypatch, 5)
        args = (ModelParams(2, 5.0), 0.1, 0.5, 3, 2000, 17, "half")
        kept = sample_tree_chain(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = {streamed(*args)[0] for _ in range(3)}
        finally:
            sys.setswitchinterval(interval)
        assert counts == {hard_core_violations(kept.ball, kept.spins)}

    @pytest.mark.parametrize("parts", [1, 3])
    def test_cli_sampler_memory_does_not_grow_with_the_samples(self, parts, monkeypatch,
                                                               capsys):
        # each part holds one block of uniforms, its comparison and one reused
        # block of spins, about 3 MB in all for any count; the spins of
        # 1,000,000 samples of 127 vertices are 127 MB, and anything of one
        # byte a sample grows by 900 kB from 100,000 samples. The parts'
        # counting temporaries, at most 350 kB, may or may not overlap
        use_cpus(monkeypatch, parts)
        argv = ["oracle", "-k", "2", "-l", "5", "-n", "6", "--mode", "sample", "--samples"]
        assert cli.main([*argv, "1000"]) == 0  # the first call's imports and caches
        peaks = []
        tracemalloc.start()
        try:
            for samples in ("100000", "1000000"):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                assert cli.main([*argv, samples]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.count("adjacent occupied pairs: 0\nPASS") == 3
        assert peaks[1] < 8 << 20
        assert peaks[1] < peaks[0] + (512 << 10)


class PartFailed(Exception):
    pass


def test_float_cross_check_holds_on_a_31_vertex_ball():
    # the auto mode's unchanged 1e-12 cross-check of the enumeration against
    # the recursion, on 8,143,397 configurations
    total = partition_function(FiniteBall(2, 4), 0.3, 0.3)
    assert total == pytest.approx(partition_function(FiniteBall(2, 4), 0.3, 0.3, "recursion"),
                                  rel=1e-15)
