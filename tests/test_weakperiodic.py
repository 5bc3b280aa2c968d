"""Four-component boundary-law system on the index-4 subgroup classes."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hctree import weakperiodic
from hctree.core import SOLVE_SETS, ConvergenceError, DomainError, ModelParams
from hctree.solvers import (
    critical_lambda,
    lambda_pm,
    s_pm,
    solve_translation_invariant,
    solve_two_periodic,
    solve_two_periodic_k2_closed,
    solve_two_periodic_k3_closed,
)
from hctree.weakperiodic import (
    WeakPeriodicParams,
    solve_weak_periodic,
    weak_system_map,
)

positives = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def plain_float_map(k, i, lam, z):
    """W one component at a time in Python floats, as a reference."""

    def component(za, zb, zc):
        base = 1.0 + lam * za
        mid = base ** (k / i) + lam * zb ** (1.0 - 1.0 / i)
        return base ** k / (mid ** i * (1.0 + lam * zc) ** (k - i))

    z1, z2, z3, z4 = z
    return (component(z3, z4, z2), component(z4, z3, z1),
            component(z1, z2, z4), component(z2, z1, z3))


class TestParams:
    def test_valid(self):
        wp = WeakPeriodicParams(3, 2, 1.5)
        assert wp.model() == ModelParams(3, 1.5)

    @pytest.mark.parametrize("i", [0, 4, -1, 1.0])
    def test_i_range(self, i):
        with pytest.raises(DomainError):
            WeakPeriodicParams(2, i, 1.0)

    def test_i_upper_is_k_plus_one(self):
        WeakPeriodicParams(2, 3, 1.0)  # allowed
        with pytest.raises(DomainError):
            WeakPeriodicParams(2, 4, 1.0)

    def test_rejects_bad_lam(self):
        with pytest.raises(DomainError):
            WeakPeriodicParams(2, 1, 0.0)


class TestSystemMap:
    @pytest.mark.parametrize("z,match", [
        ((1.0, 0.0, 1.0, 1.0), "must be positive"),
        ((1.0, 1.0, 1.0), "must have 4 components"),
    ])
    def test_rejects_nonpositive(self, z, match):
        wp = WeakPeriodicParams(2, 1, 1.0)
        with pytest.raises(DomainError, match=match):
            weak_system_map(wp, z)

    @pytest.mark.parametrize("bad", [0.0, math.inf, -1.0, math.nan])
    def test_scalar_call_rejects_bad_component(self, bad):
        wp = WeakPeriodicParams(3, 2, 2.0)
        with pytest.raises(DomainError):
            weak_system_map(wp, (0.5, 1.0, bad, 2.0))

    def test_scalar_call_raises_on_overflowing_power(self):
        with pytest.raises(OverflowError):
            weak_system_map(WeakPeriodicParams(6, 1, 10.0), (1e300, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("k,i,lam", [(2, 1, 4.0), (3, 2, 1.5), (6, 1, 10.0), (4, 5, 0.3)])
    def test_array_rows_match_scalar_calls(self, k, i, lam):
        wp = WeakPeriodicParams(k, i, lam)
        z = np.exp(np.random.default_rng(k * 10 + i).uniform(-9.0, 5.0, size=(200, 4)))
        rows = weak_system_map(wp, z)
        assert rows.shape == (200, 4)
        expect = np.array([weak_system_map(wp, row) for row in z.tolist()])
        np.testing.assert_allclose(rows, expect, rtol=1e-14, atol=0.0)
        # numpy and the C library may round a power one ulp apart, and each
        # component passes through five of them
        formula = np.array([plain_float_map(k, i, lam, row) for row in z.tolist()])
        np.testing.assert_allclose(rows, formula, rtol=1e-13, atol=0.0)

    def test_array_rows_that_would_raise_are_nan(self):
        wp = WeakPeriodicParams(6, 1, 10.0)
        z = np.array([[0.5, 1.0, 0.0, 2.0], [0.5, 1.0, 1.5, 2.0], [1e300, 1.0, 1.0, 1.0]])
        rows = weak_system_map(wp, z)
        assert np.isnan(rows[[0, 2]]).all()
        np.testing.assert_allclose(rows[1], weak_system_map(wp, z[1].tolist()), rtol=1e-14)

    def test_nested_single_row_maps_as_an_array(self):
        wp = WeakPeriodicParams(3, 2, 1.5)
        row = [0.5, 1.0, 1.5, 2.0]
        rows = weak_system_map(wp, [row])
        assert isinstance(rows, np.ndarray) and rows.shape == (1, 4)
        np.testing.assert_allclose(rows[0], weak_system_map(wp, row), rtol=1e-14)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.1, max_value=20.0),
        positives,
        positives,
    )
    @settings(max_examples=60)
    def test_invariant_planes_preserved(self, k, lam, a, b):
        # each named plane maps into itself under W for every generator count
        for i in range(1, k + 2):
            wp = WeakPeriodicParams(k, i, lam)
            w1, w2, w3, w4 = weak_system_map(wp, (a, b, a, b))  # I2: z1=z3, z2=z4
            assert w1 == pytest.approx(w3, abs=1e-7) and w2 == pytest.approx(w4, abs=1e-7)
            w1, w2, w3, w4 = weak_system_map(wp, (a, a, b, b))  # I3: z1=z2, z3=z4
            assert w1 == pytest.approx(w2, abs=1e-7) and w3 == pytest.approx(w4, abs=1e-7)
            w1, w2, w3, w4 = weak_system_map(wp, (a, b, b, a))  # I4: z1=z4, z2=z3
            assert w1 == pytest.approx(w4, abs=1e-7) and w2 == pytest.approx(w3, abs=1e-7)

    @given(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.1, max_value=10.0),
        positives,
        positives,
        positives,
        positives,
    )
    @settings(max_examples=60)
    def test_swap_commutation(self, k, lam, z1, z2, z3, z4):
        # W commutes with the simultaneous swap (1<->4)(2<->3)
        wp = WeakPeriodicParams(k, 1, lam)
        w = weak_system_map(wp, (z1, z2, z3, z4))
        ws = weak_system_map(wp, (z4, z3, z2, z1))
        swapped = (w[3], w[2], w[1], w[0])
        for x, y in zip(ws, swapped):
            assert x == pytest.approx(y, rel=1e-12)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.1, max_value=10.0),
        positives,
        positives,
    )
    @settings(max_examples=60)
    def test_top_generator_count_reduces(self, k, lam, za, zb):
        # at i = k the middle factor simplifies; recompute it from scratch
        wp = WeakPeriodicParams(k, k, lam)
        z = (za, zb, za, zb)
        got = weak_system_map(wp, z)

        def local(za_, zb_):
            # the plain divisor drops out because its exponent k - i is 0
            base = 1.0 + lam * za_
            mid = base + lam * zb_ ** ((k - 1.0) / k)
            return (base / mid) ** k

        expect = (local(z[2], z[3]), local(z[3], z[2]),
                  local(z[0], z[1]), local(z[1], z[0]))
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-10)

    @pytest.mark.parametrize("k,i,lam", [(2, 1, 3.0), (2, 2, 6.0), (3, 1, 2.0), (3, 4, 1.0), (6, 1, 10.0)])
    def test_diagonal_fixed_point(self, k, i, lam):
        # the homogeneous fixed point, copied to all four components, is
        # fixed by W for every i
        z_star = solve_translation_invariant(ModelParams(k, lam))
        wp = WeakPeriodicParams(k, i, lam)
        image = weak_system_map(wp, (z_star,) * 4)
        for v in image:
            assert v == pytest.approx(z_star, rel=1e-9)

    @pytest.mark.parametrize(
        "k,lam,closed",
        [(2, 6.0, solve_two_periodic_k2_closed), (3, 3.0, solve_two_periodic_k3_closed)],
    )
    def test_alternating_pair_sits_in_first_plane(self, k, lam, closed):
        # for i = 1 the plane I2 contains the alternating two-periodic pair
        z1, z2 = closed(lam)
        wp = WeakPeriodicParams(k, 1, lam)
        image = weak_system_map(wp, (z1, z2, z1, z2))
        assert image[0] == pytest.approx(z1, abs=1e-10)
        assert image[1] == pytest.approx(z2, abs=1e-10)
        assert image[2] == pytest.approx(z1, abs=1e-10)
        assert image[3] == pytest.approx(z2, abs=1e-10)


class TestSolver:
    def test_rejects_unknown_set(self):
        with pytest.raises(DomainError):
            solve_weak_periodic(WeakPeriodicParams(2, 1, 1.0), "I1")

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            solve_weak_periodic(WeakPeriodicParams(2, 1, 5.0), "I2", tol)

    def test_solve_sets_constant(self):
        assert SOLVE_SETS == ("I2", "I3", "I4")

    def test_subcritical_single_constant_point(self):
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 3.0), "I2")
        assert rep.count == 1
        assert rep.ti_flags == (True,)
        assert rep.non_ti_count == 0

    def test_supercritical_three_points(self):
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 6.0), "I2")
        assert rep.count == 3
        assert rep.non_ti_count == 2
        z1, z2 = solve_two_periodic_k2_closed(6.0)
        non_ti = [fp.values for fp, flag in zip(rep.fixed_points, rep.ti_flags) if not flag]
        assert sorted(v[0] for v in non_ti) == pytest.approx([z1, z2], rel=1e-9)

    def test_k3_counts(self):
        assert solve_weak_periodic(WeakPeriodicParams(3, 1, 1.5), "I2").count == 1
        rep = solve_weak_periodic(WeakPeriodicParams(3, 1, 3.0), "I2")
        assert rep.count == 3
        assert rep.non_ti_count == 2

    def test_bifurcation_point_merges_to_one(self):
        # exactly at the threshold the pair collapses onto the diagonal:
        # one constant point, exactly diagonal
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 4.0), "I2")
        assert rep.count == 1
        assert rep.ti_flags == (True,)
        assert rep.fixed_points[0].values == (0.25,) * 4

    @pytest.mark.parametrize("lam", [4.0000001, 4.001])
    def test_just_past_bifurcation_resolves_three(self, lam):
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, lam), "I2")
        assert rep.count == 3

    @pytest.mark.parametrize("invariant_set", ["I3", "I4"])
    def test_below_the_critical_activity_only_the_constant_point(self, invariant_set):
        # the Gibbs measure is unique at lam <= lam_cr, so every fixed point of W is
        # the constant one; the reduction's scan is not run there, and below lam_cr it
        # stopped at 76 of these activities per plane on a pair split "below resolution"
        for k in range(2, 9):
            lam_cr = critical_lambda(k)
            for i in range(1, k + 2):
                for ratio in (1e-16, 1e-13, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 0.999999,
                              1.0):
                    rep = solve_weak_periodic(WeakPeriodicParams(k, i, lam_cr * ratio),
                                              invariant_set)
                    assert rep.ti_flags == (True,), (k, i, ratio)

    def test_second_plane_holds_only_diagonal(self):
        # on I3 the alternating pair is not available; only the constant
        # point survives even far above the threshold
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 6.0), "I3")
        assert rep.count == 1
        assert rep.ti_flags == (True,)

    def test_i4_window_interior_has_non_constant_points(self):
        rep = solve_weak_periodic(WeakPeriodicParams(6, 1, 10.0), "I4")
        assert rep.count >= 3
        assert rep.non_ti_count >= 2
        lo, hi = 0.045462982429944688, 0.074697540058191295
        non_ti = [fp.values for fp, flag in zip(rep.fixed_points, rep.ti_flags) if not flag]
        firsts = sorted(v[0] for v in non_ti)
        assert firsts[0] == pytest.approx(lo, rel=1e-9)
        assert firsts[-1] == pytest.approx(hi, rel=1e-9)

    def test_i4_fixed_points_verify_against_map(self):
        wp = WeakPeriodicParams(6, 1, 10.0)
        rep = solve_weak_periodic(wp, "I4")
        for fp in rep.fixed_points:
            image = weak_system_map(wp, fp.values)
            for z, w in zip(fp.values, image):
                assert w == pytest.approx(z, abs=1e-10)

    @pytest.mark.parametrize("lam,expected", [(5.0, 1), (5.8, 3), (63.0, 3), (70.0, 1)])
    def test_i4_window_boundaries(self, lam, expected):
        rep = solve_weak_periodic(WeakPeriodicParams(6, 1, lam), "I4")
        assert rep.count == expected

    @pytest.mark.parametrize("k,i,lam,invariant_set", [
        (2, 1, 5.0, "I2"), (3, 2, 3.0, "I2"), (6, 7, 10.0, "I2"),
        (6, 6, 10.0, "I3"), (7, 7, 1000.0, "I3"), (2, 3, 6.0, "I3"), (5, 6, 30.0, "I3"),
        (6, 1, 10.0, "I4"), (7, 1, 100.0, "I4"), (7, 1, 3.0, "I4"),
    ])
    def test_reported_residuals_match_the_per_point_map(self, k, i, lam, invariant_set):
        # each reported residual is, to the bit, the sup-norm distance that one
        # public call of W on that point alone gives; i = k+1 on I3 solves for
        # substituted unknowns and maps back
        wp = WeakPeriodicParams(k, i, lam)
        rep = solve_weak_periodic(wp, invariant_set)
        assert rep.count == (1 if invariant_set == "I3" and i == k + 1 else 3)
        for fp, residual in zip(rep.fixed_points, rep.residuals):
            image = weak_system_map(wp, fp.values)
            assert residual == max(abs(w - z) for w, z in zip(image, fp.values))

    def test_gate_failure_raises_with_its_bracket(self):
        # a tolerance between the constant point's relative residual and the
        # pair's rejects the pair: the solve raises with the bracket the pair
        # was refined in, it drops nothing
        wp = WeakPeriodicParams(6, 1, 10.0)
        rep = solve_weak_periodic(wp, "I4")
        # the gate's arithmetic: one call of W per point, on floats
        relative = [max(abs(w - z) / z for w, z in zip(weak_system_map(wp, fp.values), fp.values))
                    for fp in rep.fixed_points]
        constant = relative[list(rep.ti_flags).index(True)]
        pair = min(r for r, flag in zip(relative, rep.ti_flags) if not flag)
        assert constant < pair
        tol = math.sqrt(constant * pair)
        with pytest.raises(ConvergenceError) as err:
            solve_weak_periodic(wp, "I4", tol)
        diag = err.value.diagnostics
        lo, hi = diag["bracket"]
        assert lo < hi and lo <= min(diag["point"]) <= hi
        assert diag["relative_residual"] == pair and diag["tol"] == tol
        # I2's points come from the two-periodic solve, with no bracket; at
        # this tol the inner residuals (2.8e-17) pass and W's gate refuses
        with pytest.raises(ConvergenceError) as err:
            solve_weak_periodic(WeakPeriodicParams(3, 1, 3.0), "I2", 1e-16)
        diag = err.value.diagnostics
        assert diag["bracket"] is None
        assert diag["relative_residual"] > 1e-16 and diag["tol"] == 1e-16

    @pytest.mark.parametrize("invariant_set", ["I3", "I4"])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_each_pair_has_one_point_above_the_constant_point(self, k, invariant_set):
        # the reduction searches below the constant point only; a two-cycle
        # with both points above it would show as extra sign changes above
        from hctree.weakperiodic import _Reduction

        for i in range(1, k + 2):
            for lam in (0.5, 2.0, 7.0, 30.0, 150.0):
                wp = WeakPeriodicParams(k, i, lam)
                z = solve_translation_invariant(wp.model())
                red = _Reduction(wp, invariant_set, z)
                # on I3 at i = k+1 the substituted unknowns stay below 1/lam
                top = 1.0 / lam if invariant_set == "I3" and i == k + 1 and lam > 1 else 1.0
                t = np.geomspace(red.centre, top, 4097)[1:]
                _, f = red.residual(t, np.full(t.size, red.centre))
                slope_x, slope_y = red.slopes(red.centre, red.centre)
                above = np.concatenate(([slope_x < slope_y], f > 0.0))
                crossings = np.count_nonzero(above[1:] != above[:-1])
                assert crossings == solve_weak_periodic(wp, invariant_set).non_ti_count // 2

    @pytest.mark.parametrize("k", range(2, 11))
    def test_first_plane_equals_the_two_periodic_system(self, k):
        # on I2 the fixed points of W are the two-periodic solutions for
        # every i (module docstring), both orders of the pair included, and no
        # coordinate exceeds 1, also where the pair's small value is tiny
        lam_cr = critical_lambda(k)
        for i in (1, 2, k + 1):
            for lam in np.geomspace(1.01 * lam_cr, 1e20, 200).tolist():
                wp = WeakPeriodicParams(k, i, lam)
                try:
                    rep = solve_weak_periodic(wp, "I2")
                except ConvergenceError:
                    # allowed only where the gate's powers of 1 + lam*z overflow
                    assert max(k, i) * math.log1p(lam) > math.log(sys.float_info.max), (i, lam)
                    continue
                constant, *pairs = solve_two_periodic(wp.model()).solutions
                (z,) = constant.values
                want = [(z, z, z, z)]
                for z1, z2 in (law.values for law in pairs):
                    want += [(z1, z2, z1, z2), (z2, z1, z2, z1)]
                assert [fp.values for fp in rep.fixed_points] == sorted(want), (i, lam)
                assert max(max(fp.values) for fp in rep.fixed_points) <= 1.0, (i, lam)

    def test_report_is_sorted(self):
        rep = solve_weak_periodic(WeakPeriodicParams(2, 1, 6.0), "I2")
        firsts = [fp.values[0] for fp in rep.fixed_points]
        assert firsts == sorted(firsts)


# planes with a pair: I4 inside k = 6's window, and I3 in the substituted
# unknowns at i = k+1
REFINED_PAIRS = [(6, 1, "I4", 5.8), (6, 1, "I4", 10.0), (6, 1, "I4", 63.0),
                 (3, 4, "I3", 2.0), (5, 6, "I3", 1.0)]


class TestFloatRefine:
    """The Illinois refine and the Newton under it run on Python floats, one
    bracket at a time."""

    @pytest.mark.parametrize("k,i,invariant_set,lam", REFINED_PAIRS)
    def test_returned_root_is_next_to_a_sign_change(self, k, i, invariant_set, lam, monkeypatch):
        # R, as the refine evaluated it, has the other sign at a neighbouring
        # float of the returned t, or is 0 there
        values, roots = {}, []
        residual_at, refine = weakperiodic._Reduction.residual_at, weakperiodic._refine

        def recording_residual_at(red, t, y):
            y, f = residual_at(red, t, y)
            values[t] = f
            return y, f

        def recording_refine(red, a, b, fa, fb, ya):
            values.update({a: fa, b: fb})
            t, y = refine(red, a, b, fa, fb, ya)
            roots.append(t)
            return t, y

        monkeypatch.setattr(weakperiodic._Reduction, "residual_at", recording_residual_at)
        monkeypatch.setattr(weakperiodic, "_refine", recording_refine)
        rep = solve_weak_periodic(WeakPeriodicParams(k, i, lam), invariant_set)
        assert roots and rep.non_ti_count == 2 * len(roots)
        for t in roots:
            assert isinstance(t, float)
            f = values[t]
            neighbours = [s for s in (math.nextafter(t, 0.0), math.nextafter(t, math.inf))
                          if s in values]
            assert f == 0.0 or any((values[s] > 0.0) != (f > 0.0) for s in neighbours)

    def test_refine_failure_raises_with_its_bracket(self, monkeypatch):
        monkeypatch.setattr(weakperiodic, "_REFINE_MAX_ITER", 1)
        wp = WeakPeriodicParams(6, 1, 10.0)
        with pytest.raises(ConvergenceError, match="bracket refinement did not converge") as err:
            solve_weak_periodic(wp, "I4")
        lo, hi = err.value.diagnostics["bracket"]
        assert type(lo) is float and type(hi) is float
        red = weakperiodic._Reduction(wp, "I4", solve_translation_invariant(wp.model()))
        assert red.lo <= lo < hi < red.centre

    def test_newton_failure_raises_with_its_point(self, monkeypatch):
        monkeypatch.setattr(weakperiodic, "_NEWTON_MAX_ITER", 1)
        wp = WeakPeriodicParams(6, 1, 10.0)
        red = weakperiodic._Reduction(wp, "I4", solve_translation_invariant(wp.model()))
        t = 0.05
        with pytest.raises(ConvergenceError, match="elimination Newton") as err:
            red.residual_at(t, red.centre)
        assert err.value.diagnostics["point"] == t
        # the grid's Newton on arrays reports every point it left unconverged
        with pytest.raises(ConvergenceError, match="elimination Newton") as err:
            solve_weak_periodic(wp, "I4")
        point = err.value.diagnostics["point"]
        assert point and all(red.lo <= p < red.centre for p in point)

    @pytest.mark.parametrize("start", [0.0, math.inf, math.nan])
    @pytest.mark.parametrize("invariant_set,i", [("I3", 1), ("I4", 1), ("I4", 3), ("I3", 7)])
    def test_math_domain_errors_end_as_the_array_path_does(self, invariant_set, i, start):
        # math raises where numpy carries -inf, inf or NaN into a Newton that
        # never converges: both paths raise ConvergenceError with the point
        wp = WeakPeriodicParams(6, i, 10.0)
        red = weakperiodic._Reduction(wp, invariant_set, solve_translation_invariant(wp.model()))
        t = 0.5 * (red.lo + red.centre)
        with pytest.raises(ConvergenceError) as err:
            red.residual(np.array([t]), np.array([start]))
        assert err.value.diagnostics["point"] == [t]
        with pytest.raises(ConvergenceError) as err:
            red.residual_at(t, start)
        assert err.value.diagnostics["point"] == t


# Fixed points on a fixed (k, i, set, lam) grid, in plane coordinates (a, b),
# as the one-start-at-a-time Newton solver found them. The counts are exact:
# bench/exact_weak_counts.py confirms them by resultant elimination.
PINNED = [
    (2, 1, "I2", 3.0, [
        (0.28790217593972933, 0.28790217593973005),
    ]),
    (2, 1, "I2", 4.0, [
        (0.24999962597831793, 0.25000037402210173),
    ]),
    (2, 1, "I2", 4.0000001, [
        (0.24992094754936242, 0.2500790649514723),
        (0.24999999390984504, 0.2499999998401551),
        (0.2500790609628703, 0.2499209515360729),
    ]),
    (2, 1, "I2", 4.001, [
        (0.24215777825476434, 0.2579671905030578),
        (0.24996875536969032, 0.24996875537045285),
        (0.25796719050254846, 0.24215777825524998),
    ]),
    (2, 1, "I2", 4.5, [
        (0.11111111111111084, 0.4444444444444452),
        (0.2356015901916167, 0.23560159019161853),
        (0.44444444444444386, 0.1111111111111113),
    ]),
    (2, 1, "I2", 5.0, [
        (0.07639320225002096, 0.5236067977499793),
        (0.22326865972484203, 0.22326865972484267),
        (0.5236067977499789, 0.07639320225002104),
    ]),
    (2, 1, "I2", 6.0, [
        (0.044658198738520415, 0.6220084679281466),
        (0.20312943088361082, 0.20312943088361107),
        (0.6220084679281461, 0.04465819873852046),
    ]),
    (3, 1, "I2", 1.5, [
        (0.31408568692560457, 0.3140856869256072),
    ]),
    (3, 1, "I2", 3.0, [
        (0.025201510030802843, 0.8036040780907208),
        (0.219366022457406, 0.219366022457406),
        (0.8036040780907208, 0.025201510030802843),
    ]),
    (4, 2, "I2", 2.0, [
        (0.017756482902220278, 0.8697167524032567),
        (0.22554254602735954, 0.22554254602735982),
        (0.8697167524032567, 0.017756482902220278),
    ]),
    (6, 1, "I4", 5.0, [
        (0.09571199185337911, 0.09571199185338321),
    ]),
    (6, 1, "I4", 5.8, [
        (0.08158173979793029, 0.09194849934921567),
        (0.0867311833626277, 0.0867311833626567),
        (0.09194849934920156, 0.08158173979794403),
    ]),
    (6, 1, "I4", 10.0, [
        (0.045462982429944516, 0.07469754005819149),
        (0.059878020095315364, 0.059878020095315954),
        (0.07469754005819114, 0.045462982429944836),
    ]),
    (6, 1, "I4", 63.0, [
        (0.01537770300751606, 0.016239149457396573),
        (0.015810599233342926, 0.01581059923335046),
        (0.016239149457394568, 0.015377703007518109),
    ]),
    (6, 1, "I4", 70.0, [
        (0.014608006303713394, 0.014608006303715023),
    ]),
    (2, 1, "I3", 3.0, [
        (0.28790217593972967, 0.28790217593972967),
    ]),
]


class TestPinnedGrid:
    @pytest.mark.parametrize("k,i,invariant_set,lam,points", PINNED)
    def test_counts_and_points(self, k, i, invariant_set, lam, points):
        rep = solve_weak_periodic(WeakPeriodicParams(k, i, lam), invariant_set)
        assert rep.count == len(points)
        second = 2 if invariant_set == "I3" else 1
        got = [(fp.values[0], fp.values[second]) for fp in rep.fixed_points]
        # right at the k = 2 bifurcation a cluster's representative may be any
        # of its members, so there the points agree to the merge radius only
        near_bifurcation = (k, i, invariant_set) == (2, 1, "I2") and abs(lam - 4.0) <= 1e-6
        tol = 8e-6 if near_bifurcation else 1e-12
        for (a, b), (pa, pb) in zip(got, points):
            assert abs(a - pa) <= tol and abs(b - pb) <= tol


class TestWindowEndpoints:
    def test_s_pm_k6(self):
        sm, sp = s_pm(6)
        assert sm == pytest.approx(0.5, rel=1e-14)
        assert sp == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(6, 13))
    def test_vieta_product(self, k):
        sm, sp = s_pm(k)
        assert sm * sp == pytest.approx(0.5, rel=1e-12)
        assert sm + sp == pytest.approx((k - 3) / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            s_pm(5)
        with pytest.raises(DomainError):
            lambda_pm(4)

    def test_lambda_window_k6(self):
        lo, hi = lambda_pm(6)
        assert lo == pytest.approx(5.6953125, rel=1e-14)
        assert hi == pytest.approx(64.0, rel=1e-14)

    @pytest.mark.parametrize("k", [6, 7, 10, 30, 100, 1000, 10**6, 10**10])
    def test_lower_end_against_50_digits(self, k):
        # s_minus by Vieta and lambda_minus through log1p: k - 3 - sqrt(...)
        # cancels and s_minus + 1 drops the low bits of a small s_minus
        mpmath = pytest.importorskip("mpmath")  # ships with sympy
        with mpmath.workdps(50):
            d = mpmath.sqrt(mpmath.mpf(k) ** 2 - 6 * k + 1)
            sm, sp = (k - 3 - d) / 4, (k - 3 + d) / 4
            want = (sm, sp, (1 + sm) ** k * sm)
            got = (*s_pm(k), lambda_pm(k)[0])
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * w

    @pytest.mark.parametrize("k", [161, 162, 1000, 100000])
    def test_upper_end_past_the_float_range_is_inf(self, k):
        lo, hi = lambda_pm(k)
        assert 0.0 < lo < 1.0
        assert hi == math.inf

    @pytest.mark.parametrize("k", [6, 7, 9])
    def test_endpoints_touch_diagonal(self, k):
        # at either window endpoint the scaled constant solution lam*z equals
        # the corresponding root, so the extra branch merges into the diagonal
        sm, sp = s_pm(k)
        lo, hi = lambda_pm(k)
        for lam, s in ((lo, sm), (hi, sp)):
            z = solve_translation_invariant(ModelParams(k, lam))
            assert lam * z == pytest.approx(s, rel=1e-10)
