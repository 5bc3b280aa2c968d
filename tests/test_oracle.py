"""Exact finite-volume cross-checks: counts, partition functions, sampling."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hctree import oracle
from hctree.core import (
    DomainError,
    InternalCheckError,
    ModelParams,
    single_step_matrix,
    two_step_matrix,
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
from hctree.solvers import solve_translation_invariant, solve_two_periodic_k2_closed


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
        assert b.prefix_size(2) == 7

    def test_full_root_shape(self):
        b = FiniteBall(2, 2, RootDegree.FULL)
        # root has k+1 = 3 children, each spawning k = 2
        assert b.n_vertices == 1 + 3 + 6
        assert len(b.children[0]) == 3
        assert all(len(b.children[c]) == 2 for c in b.children[0])

    def test_parent_precedes_child(self):
        b = FiniteBall(3, 2, RootDegree.FULL)
        assert all(b.parent[v] < v for v in range(1, b.n_vertices))

    def test_path_graph(self):
        b = FiniteBall(1, 4)
        assert b.n_vertices == 5
        assert b.leaves == (4,)

    @pytest.mark.parametrize("root", list(RootDegree))
    def test_cap_from_closed_form_size(self, root):
        for k in (2, 3, 4, 6):
            for depth in range(6):
                n = FiniteBall(k, depth, root).n_vertices
                if n <= ENUMERATION_VERTEX_CAP:
                    _require_ball_enumerable(k, depth, root)
                else:
                    with pytest.raises(SizeCapError, match=f"got {n}$"):
                        _require_ball_enumerable(k, depth, root)
        with pytest.raises(SizeCapError, match="got a ball of depth 1000000000$"):
            _require_ball_enumerable(2, 10**9, root)

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
            want = m.row(spin)
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
            want = m.row(spin)
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
        with pytest.raises(DomainError):
            sample_tree_chain(p, -0.1, 0.1, depth=1, count=1, seed=0)


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

    def test_mapping_boundary_refused(self):
        ball = FiniteBall(2, 1)
        with pytest.raises(DomainError, match="boundary weight at vertex 2"):
            partition_function(ball, 1.0, {1: 0.5, 2: math.nan})

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


def _brute_force(n_vertices, parent):
    """Admissible 0/1 tuples of vertices 0..n_vertices-1, lexicographic."""
    return [config for config in itertools.product((0, 1), repeat=n_vertices)
            if not any(config[v] and config[parent[v]] for v in range(1, n_vertices))]


def _scalar_weight(lam, config, leaves):
    w = lam ** sum(config)
    for v, z in leaves.items():
        if config[v]:
            w = w * z
    return w


def _scalar_consistency(ball, lam, zs):
    """consistency_check configuration by configuration, in the inputs' own
    arithmetic: float and exact weights meet only where a sum or a product
    mixes them."""
    m = ball.prefix_size(ball.depth - 1)
    leaves_n = {v: zs[v] for v in ball.leaves}
    leaves_m = {v: zs[v] for v in range(m) if ball.level[v] == ball.depth - 1}
    grouped, total_n = {}, 0
    for c in _brute_force(ball.n_vertices, ball.parent):
        w = _scalar_weight(lam, c, leaves_n)
        total_n += w
        grouped[c[:m]] = grouped.get(c[:m], 0) + w
    inner = [(c, _scalar_weight(lam, c, leaves_m)) for c in _brute_force(m, ball.parent)]
    total_m = 0
    for _, w in inner:
        total_m += w
    return max(abs(grouped[c] / total_n - w / total_m) for c, w in inner)


class TestEnumerationBlocks:
    """The enumeration and the sampler work in blocks; their size must not
    change a count, a configuration, the order or a single float bit."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", 40)

    @pytest.mark.parametrize("ball", _ball_cases(), ids=repr)
    def test_listing_is_the_lexicographic_brute_force(self, ball, tiny_blocks):
        assert list(enumerate_admissible(ball)) == _brute_force(ball.n_vertices, ball.parent)

    @pytest.mark.parametrize("ball", _ball_cases(), ids=repr)
    def test_float_results_equal_a_scalar_loop(self, ball, tiny_blocks):
        # one weight per configuration, added one at a time in listing order
        lam = 1.7
        zs = [0.2 + 0.1 * v for v in range(ball.n_vertices)]
        configs = _brute_force(ball.n_vertices, ball.parent)
        leaves = {v: zs[v] for v in ball.leaves}
        weights = [_scalar_weight(lam, c, leaves) for c in configs]
        assert partition_function(ball, lam, zs, method="enumeration") == math.fsum(weights)

        total = occupied = 0
        for c, w in zip(configs, weights):
            total += w
            if c[0]:
                occupied += w
        assert root_marginal(ball, lam, zs, method="enumeration") == occupied / total

        assert consistency_check(ball, lam, zs) == _scalar_consistency(ball, lam, zs)

        target = ball.children[ball.children[0][0]][0]
        for spin in (0, 1):
            cond = occ = 0
            for c, w in zip(configs, weights):
                if c[0] == spin:
                    cond += w
                    if c[target]:
                        occ += w
            got = conditional_child_distribution(ball, lam, zs, spin, steps=2)
            assert got == (1 - occ / cond, occ / cond)

    @pytest.mark.parametrize("ball", _ball_cases(), ids=repr)
    def test_blocks_are_bounded_and_ascending(self, ball, tiny_blocks):
        blocks = list(oracle._mask_blocks(ball.n_vertices, ball.parent))
        assert all(1 <= len(masks) <= 3 for masks in blocks)
        masks = np.concatenate(blocks)
        assert np.all(np.diff(masks) > 0)
        assert len(masks) == count_admissible(ball, "recursion")

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

    @pytest.mark.parametrize("block", [40, 1 << 18])
    def test_sampler_spins_equal_the_recorded_digest(self, block, monkeypatch):
        # digest of the spins drawn by one rng.random((count, n)) call and a
        # vertex-by-vertex fill
        monkeypatch.setattr(oracle, "_SAMPLE_BLOCK", block)
        z1, z2 = solve_two_periodic_k2_closed(5.0)
        res = sample_tree_chain(ModelParams(2, 5.0), z1, z2, depth=3, count=64, seed=7)
        assert hashlib.sha256(res.spins.tobytes()).hexdigest() == (
            "1fe339856d35d2168e29ca46f78b1b020e6157457343a483a7831098ceede666")


class TestSamplerArguments:
    @pytest.mark.parametrize("name,value,message", [
        ("count", True, "count must be an integer, got True"),
        ("count", 2.5, "count must be an integer, got 2.5"),
        ("count", 0, "count must be >= 1, got 0"),
        ("depth", True, "depth must be an integer, got True"),
        ("depth", 2.0, "depth must be an integer, got 2.0"),
        ("depth", 0, "depth must be >= 1, got 0")])
    def test_refused_before_the_ball_is_built(self, name, value, message, monkeypatch):
        def no_ball(*args):
            raise AssertionError("built a ball before checking the arguments")

        monkeypatch.setattr(oracle, "FiniteBall", no_ball)
        args = {"depth": 2, "count": 4, name: value}
        with pytest.raises(DomainError, match=f"^{message}$"):
            sample_tree_chain(ModelParams(2, 5.0), 0.1, 0.1, seed=0, **args)


def test_float_cross_check_holds_on_a_31_vertex_ball():
    # the auto mode's unchanged 1e-12 cross-check of the enumeration against
    # the recursion, on 8,143,397 configurations
    total = partition_function(FiniteBall(2, 4), 0.3, 0.3)
    assert total == pytest.approx(partition_function(FiniteBall(2, 4), 0.3, 0.3, "recursion"),
                                  rel=1e-15)
