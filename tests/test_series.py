"""The power series of the transfer curve, by series reversion."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    ReversionSingular,
    psi,
    taylor_for,
)


def closed_form(d_c: int, eps: float, M: int) -> np.ndarray:
    """T_2..T_M of 1 - (1-x)^omega over eps, omega = 1/(d_c - 1).

    T_i = (omega choose i-1) * (-1)^i / eps, the generalized binomial
    coefficient as an explicit product.
    """
    omega = 1.0 / (d_c - 1)
    out = []
    for i in range(2, M + 1):
        k = i - 1
        binom = 1.0
        for j in range(k):
            binom *= omega - j
        out.append(binom / math.factorial(k) * (-1.0) ** i / eps)
    return np.array(out)


def series_eval(T: np.ndarray, x: float) -> float:
    """sum_i T_i x^{i-1}; T_2 sits at exponent 1."""
    return float(npoly.polyval(x, np.concatenate([[0.0], T])))


class TestSingleDegreeExpansion:
    def test_leading_coefficient_at_unit_erasure(self):
        T = taylor_for(DegreeDistribution({8: 1.0}), 1.0, 12)
        assert T[0] == pytest.approx(1.0 / 7.0, rel=1e-14)

    def test_leading_coefficient_scales_inversely_with_erasure(self):
        T = taylor_for(DegreeDistribution({8: 1.0}), 0.5, 12)
        assert T[0] == pytest.approx(2.0 / 7.0, rel=1e-14)

    def test_all_terms_positive(self):
        for d_c in (3, 6, 8, 15):
            T = taylor_for(DegreeDistribution({d_c: 1.0}), 0.5, 40)
            assert T.shape == (39,)
            assert T.min() > 0.0

    def test_partial_sum_approaches_transfer_curve(self):
        rho = DegreeDistribution({8: 1.0})
        ctx = DEContext.create(rho, 0.5, 1e-5)
        T = taylor_for(rho, 0.5, 120)
        x = 0.3
        assert series_eval(T, x) == pytest.approx(psi(ctx, x), abs=1e-8)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            taylor_for(DegreeDistribution({8: 1.0}), 0.5, 2)


class TestGeneralExpansion:
    def test_matches_single_degree_route_termwise(self):
        # the reversion against the generalized-binomial closed form
        for d_c in (3, 8, 12):
            for eps in (0.3, 0.48):
                got = taylor_for(DegreeDistribution({d_c: 1.0}), eps, 120)
                want = closed_form(d_c, eps, 120)
                assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (d_c, eps)

    def test_leading_coefficient_is_inverse_slope(self, rho_mix):
        T = taylor_for(rho_mix, 0.48, 30)
        assert T[0] == pytest.approx(1.0 / (0.48 * rho_mix.eval_deriv(1.0)), rel=1e-12)

    def test_matches_bisection_inside_radius(self, rho_mix):
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        T = taylor_for(rho_mix, 0.48)
        assert T.shape == (59,)
        for x in (0.05, 0.2, 0.4):
            assert series_eval(T, x) == pytest.approx(psi(ctx, x), abs=1e-7)

    def test_composition_with_forward_map_is_identity(self, rho_mix):
        # independent check of the series reversion: h(z) = 1 - rho(1 - z)
        # expanded with numpy, composed with eps * psi_T, must be x + O(x^M)
        # (psi_T carries exponents 1..M-1)
        M = 16
        eps = 0.48
        T = taylor_for(rho_mix, eps, M)
        one_minus_z = npoly.Polynomial([1.0, -1.0])
        h = 1.0 - npoly.Polynomial(rho_mix.dense)(one_minus_z)
        s = npoly.Polynomial(eps * np.concatenate([[0.0], T]))
        comp = h(s).coef[:M]
        want = np.zeros(M)
        want[1] = 1.0
        assert np.max(np.abs(comp - want)) < 1e-10

    def test_truncation_error_scales_with_order(self, rho_mix):
        # truncating at order M leaves an O(x^M) remainder (top kept exponent
        # is M-1), so doubling x multiplies the error by about 2^M
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        T = taylor_for(rho_mix, 0.48, 40)[:7]  # T_2..T_8
        e1 = abs(series_eval(T, 0.12) - psi(ctx, 0.12))
        e2 = abs(series_eval(T, 0.24) - psi(ctx, 0.24))
        slope = np.log(e2 / e1) / np.log(2.0)
        assert 7.5 < slope < 10.5

    def test_flat_check_profile_rejected(self):
        flat = DegreeDistribution({2: 0.0})
        with pytest.raises(ReversionSingular):
            taylor_for(flat, 0.5, 12)
