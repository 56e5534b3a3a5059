"""Polynomial expansions of the transfer curve and their validity checks."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from helpers import frac_binom_oracle
from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    NonConvergent,
    ReversionSingular,
    TaylorSeries,
    binom_frac,
    order_for_tolerance,
    psi,
    taylor_for,
    taylor_general,
    taylor_regular,
)


class TestFractionalBinomial:
    def test_integer_case(self):
        assert binom_frac(3.0, 2) == pytest.approx(3.0, abs=1e-15)

    def test_half_case(self):
        assert binom_frac(0.5, 2) == pytest.approx(-0.125, abs=1e-15)

    def test_zeroth_is_one(self):
        assert binom_frac(0.37, 0) == 1.0

    def test_matches_product_oracle(self, rng):
        for _ in range(20):
            omega = float(rng.uniform(-2.0, 2.0))
            i = int(rng.integers(0, 9))
            assert binom_frac(omega, i) == pytest.approx(
                frac_binom_oracle(omega, i), rel=1e-13, abs=1e-300
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            binom_frac(0.5, -1)


class TestSingleDegreeExpansion:
    def test_leading_coefficient_at_unit_erasure(self):
        T = taylor_regular(8, 1.0, 12)
        assert T.t(2) == pytest.approx(1.0 / 7.0, rel=1e-14)

    def test_leading_coefficient_scales_inversely_with_erasure(self):
        T = taylor_regular(8, 0.5, 12)
        assert T.t(2) == pytest.approx(2.0 / 7.0, rel=1e-14)

    def test_all_terms_positive(self):
        for d_c in (3, 6, 8, 15):
            T = taylor_regular(d_c, 0.5, 40)
            assert min(T.t(i) for i in range(2, 41)) > 0.0

    def test_partial_sum_approaches_transfer_curve(self):
        ctx = DEContext.create(DegreeDistribution({8: 1.0}), 0.5, 1e-5)
        T = taylor_regular(8, 0.5, 120)
        x = 0.3
        want = psi(ctx, x)
        assert T.eval(x) == pytest.approx(want, abs=1e-8)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            taylor_regular(2, 0.5, 12)
        with pytest.raises(ValueError):
            taylor_regular(8, 0.5, 2)


class TestGeneralExpansion:
    def test_matches_single_degree_route_termwise(self):
        rho = DegreeDistribution({8: 1.0})
        direct = taylor_regular(8, 0.48, 40)
        reverted = taylor_general(rho, 0.48, 40)
        for i in range(2, 41):
            assert reverted.t(i) == pytest.approx(direct.t(i), rel=1e-12, abs=1e-15)

    def test_leading_coefficient_is_inverse_slope(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 30)
        assert T.t(2) == pytest.approx(1.0 / (0.48 * rho_mix.eval_deriv(1.0)), rel=1e-12)

    def test_matches_bisection_inside_radius(self, rho_mix):
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        T = taylor_general(rho_mix, 0.48, 60)
        for x in (0.05, 0.2, 0.4):
            assert T.eval(x) == pytest.approx(psi(ctx, x), abs=1e-7)

    def test_composition_with_forward_map_is_identity(self, rho_mix):
        # independent check of the series reversion: h(z) = 1 - rho(1 - z)
        # expanded with numpy, composed with eps * psi_T, must be x + O(x^M)
        # (psi_T carries exponents 1..M-1)
        M = 16
        eps = 0.48
        T = taylor_general(rho_mix, eps, M)
        one_minus_z = npoly.Polynomial([1.0, -1.0])
        h = 1.0 - npoly.Polynomial(rho_mix.dense)(one_minus_z)
        s = npoly.Polynomial(eps * np.asarray(T.dense))
        comp = h(s).coef[:M]
        want = np.zeros(M)
        want[1] = 1.0
        assert np.max(np.abs(comp - want)) < 1e-10

    def test_truncation_error_scales_with_order(self, rho_mix):
        # truncating at order M leaves an O(x^M) remainder (top kept exponent
        # is M-1), so doubling x multiplies the error by about 2^M
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        T = taylor_general(rho_mix, 0.48, 40).truncated(8)
        e1 = abs(T.eval(0.12) - psi(ctx, 0.12))
        e2 = abs(T.eval(0.24) - psi(ctx, 0.24))
        slope = np.log(e2 / e1) / np.log(2.0)
        assert 7.5 < slope < 10.5

    def test_flat_check_profile_rejected(self):
        flat = DegreeDistribution({2: 0.0})
        with pytest.raises(ReversionSingular):
            taylor_general(flat, 0.5, 12)


class TestDispatchAndOrderSearch:
    def test_single_degree_dispatches_to_closed_form(self):
        rho = DegreeDistribution({8: 1.0})
        a = taylor_for(rho, 0.5, M=24)
        b = taylor_regular(8, 0.5, 24)
        assert np.allclose(a.dense, b.dense, rtol=1e-13, atol=0.0)

    def test_mixture_dispatches_to_reversion(self, rho_mix):
        a = taylor_for(rho_mix, 0.48, M=24)
        b = taylor_general(rho_mix, 0.48, 24)
        assert np.allclose(a.dense, b.dense, rtol=1e-13, atol=0.0)

    def test_order_search_meets_tolerance_on_independent_grid(self, rho_mix):
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        M = order_for_tolerance(ctx, tol=1e-6)
        T = taylor_for(rho_mix, 0.48, M=M)
        xs = np.linspace(0.0, 0.95 * ctx.xi, 777)
        err = np.abs(T.eval(xs) - psi(ctx, xs))
        assert float(err.max()) <= 1e-6

    def test_order_search_gives_up_past_cap(self, rho_mix):
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        with pytest.raises(NonConvergent):
            order_for_tolerance(ctx, tol=1e-15, max_order=100)


class TestSeriesContainer:
    def test_dense_layout_and_indexing(self):
        # T_i multiplies x**(i-1), same alignment as DegreeDistribution.dense
        T = TaylorSeries(np.array([0.25, 0.125, 0.0625]))
        assert T.taylor_order == 4
        assert T.t(2) == 0.25 and T.t(4) == 0.0625
        assert T.dense[0] == 0.0 and T.dense[1] == 0.25 and T.dense[3] == 0.0625

    def test_index_outside_stored_range_rejected(self):
        T = TaylorSeries(np.array([0.25, 0.125]))
        with pytest.raises(IndexError):
            T.t(1)
        with pytest.raises(IndexError):
            T.t(4)

    def test_eval_matches_numpy_polyval(self):
        T = TaylorSeries(np.array([0.25, 0.125, 0.0625]))
        for x in (0.0, 0.3, 0.9):
            assert T.eval(x) == pytest.approx(
                float(npoly.polyval(x, T.dense)), rel=1e-15
            )

    def test_eval_deriv_matches_numpy_polyder(self):
        T = TaylorSeries(np.array([0.25, 0.125, 0.0625]))
        d = npoly.polyder(T.dense)
        assert T.eval_deriv(0.4) == pytest.approx(float(npoly.polyval(0.4, d)), rel=1e-14)

    def test_truncation_keeps_prefix(self):
        T = TaylorSeries(np.array([0.25, 0.125, 0.0625, 0.03125]))
        cut = T.truncated(3)
        assert cut.taylor_order == 3
        assert cut.t(3) == 0.125
        with pytest.raises(ValueError):
            T.truncated(2)
        with pytest.raises(ValueError):
            T.truncated(9)
