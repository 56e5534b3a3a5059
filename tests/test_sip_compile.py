"""Band-constraint compilation to even polynomials plus nonnegativity proofs."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from helpers import binom_product_oracle, poly_product_oracle, random_simplex_lambda
from ldpc_forge import (
    ConstraintPolynomial,
    DegreeDistribution,
    DomainError,
    NumericalFailure,
    OrderTooSmall,
    TaylorSeries,
    ZetaTildeZero,
    binomial_tables,
    certify,
    compile_constraint,
    gap_coefficients,
    gram_matrix,
    gram_residual,
    mobius_x_of_u,
    mobius_x_of_y,
    mobius_y_of_x,
    nonneg_on_halfline,
    taylor_general,
)
from ldpc_forge import sip_compile

ZT, XI = 0.04, 0.7


class TestMobiusMap:
    def test_origin_maps_to_left_anchor(self):
        assert mobius_x_of_y(ZT, XI, 0.0) == ZT

    def test_range_is_half_open(self):
        ys = np.linspace(0.0, 50.0, 513)
        xs = mobius_x_of_y(ZT, XI, ys)
        assert xs.min() == ZT
        assert xs.max() < XI
        assert np.all(np.diff(xs) > 0)

    def test_round_trip(self):
        for y in (0.0, 0.3, 1.0, 7.5):
            x = mobius_x_of_y(ZT, XI, y)
            assert mobius_y_of_x(ZT, XI, x) == pytest.approx(y, abs=1e-12)

    def test_right_endpoint_has_no_preimage(self):
        with pytest.raises(DomainError):
            mobius_y_of_x(ZT, XI, XI)
        with pytest.raises(DomainError):
            mobius_y_of_x(ZT, XI, ZT - 1e-9)

    def test_u_parameterization_is_y_squared(self):
        for y in (0.2, 1.0, 3.0):
            assert mobius_x_of_u(ZT, XI, y * y) == pytest.approx(
                mobius_x_of_y(ZT, XI, y), rel=1e-15
            )


class TestBinomialTables:
    def test_first_row_shapes_and_values(self):
        tb = binomial_tables(ZT, XI, 6, 1)
        assert np.allclose(tb["a"], [1.0, XI / ZT])
        assert np.allclose(tb["c"], [1.0])
        assert tb["d"][0] == 1.0
        assert tb["b"].size == 6

    def test_tables_rebuild_product_polynomials(self):
        # zt^i * (a conv b) must equal (zt + xi*u)^i (1+u)^(D-i), and the
        # c/d pair the same with i-1 against D-i+1
        D, i = 4, 2
        tb = binomial_tables(ZT, XI, D, i)
        left = ZT**i * np.convolve(tb["a"], tb["b"])
        assert np.allclose(left, binom_product_oracle(i, D, ZT, XI), rtol=1e-13)
        left_cd = ZT ** (i - 1) * np.convolve(tb["c"], tb["d"])
        want_cd = poly_product_oracle(*([[ZT, XI]] * (i - 1) + [[1.0, 1.0]] * (D - i + 1)))
        assert np.allclose(left_cd, want_cd, rtol=1e-13)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ZetaTildeZero):
            binomial_tables(0.0, XI, 6, 1)

    @pytest.mark.parametrize("i", [0, 7])
    def test_row_index_bounds(self, i):
        with pytest.raises(ValueError):
            binomial_tables(ZT, XI, 6, i)


class TestGapCoefficients:
    def test_single_degree_lambda_shifts_leading_term(self):
        T = TaylorSeries(np.array([0.4, 0.3, 0.2, 0.1]))
        f = gap_coefficients(DegreeDistribution({2: 1.0}), T)
        assert f[0] == pytest.approx(0.4 - 1.0)
        assert np.allclose(f[1:], [0.3, 0.2, 0.1])

    def test_mixed_lambda_subtracts_at_matching_degrees(self):
        T = TaylorSeries(np.linspace(0.5, 0.1, 5))
        lam = DegreeDistribution({2: 0.25, 4: 0.75})
        f = gap_coefficients(lam, T)
        assert f[0] == pytest.approx(T.t(2) - 0.25)
        assert f[1] == pytest.approx(T.t(3))
        assert f[2] == pytest.approx(T.t(4) - 0.75)

    def test_order_must_exceed_variable_degree(self):
        T = TaylorSeries(np.array([0.4, 0.3]))  # M = 3
        with pytest.raises(OrderTooSmall):
            gap_coefficients(DegreeDistribution({2: 0.5, 3: 0.5}), T)


class TestCompile:
    def test_hand_built_identity_gap(self):
        # T_2 = 2 with lam(x) = x makes the gap exactly x, so
        # pi(u) = (1+u)^D * x(u) = (zt + xi*u)(1+u)^(D-1)
        T = TaylorSeries(np.array([2.0, 0.0, 0.0]))
        cp = compile_constraint(DegreeDistribution({2: 1.0}), 0.0, T, ZT, XI)
        assert cp.D == 3
        want = poly_product_oracle([ZT, XI], [1.0, 1.0], [1.0, 1.0])
        assert np.allclose(cp.pi, want, rtol=1e-13, atol=1e-15)

    def test_value_at_origin_is_gap_at_anchor(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        lam = DegreeDistribution({2: 0.15, 3: 0.45, 16: 0.40})
        t = 0.02
        cp = compile_constraint(lam, t, T, ZT, XI)
        want = T.eval(ZT) - lam.eval(ZT) - t * T.eval_deriv(ZT)
        assert cp.pi[0] == pytest.approx(want, rel=1e-9)

    def test_sampled_equivalence_with_direct_gap(self, rng, rho_mix):
        T = taylor_general(rho_mix, 0.48, 40)
        for _ in range(3):
            lam = random_simplex_lambda(rng, d_v=16)
            t = float(rng.uniform(0.0, 0.1))
            zt = float(rng.uniform(0.005, 0.1))
            xi = float(rng.uniform(zt + 0.2, 0.9))
            cp = compile_constraint(lam, t, T, zt, xi)
            us = np.linspace(0.0, 9.0, 41)
            lhs = npoly.polyval(us, cp.pi)
            xs = mobius_x_of_u(zt, xi, us)
            rhs = (1.0 + us) ** cp.D * (
                T.eval(xs) - lam.eval(xs) - t * T.eval_deriv(xs)
            )
            denom = np.maximum(np.abs(rhs), 1e-12 * np.max(np.abs(lhs)) + 1e-300)
            assert np.max(np.abs(lhs - rhs) / denom) < 1e-8

    def test_affine_reconstruction_matches_pi(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        lam = DegreeDistribution({2: 0.2, 3: 0.4, 9: 0.4})
        t = 0.01
        cp = compile_constraint(lam, t, T, ZT, XI)
        vec = np.array([lam.coeff(j) for j in range(2, cp.d_v + 1)])
        assert np.allclose(cp.affine(vec, t), cp.pi, rtol=1e-12, atol=1e-9)

    def test_compilation_is_affine_in_decision_variables(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        lam_a = DegreeDistribution({2: 0.3, 3: 0.3, 9: 0.4})
        lam_b = DegreeDistribution({2: 0.1, 3: 0.5, 9: 0.4})
        th = 0.37
        mixed = DegreeDistribution(
            {d: th * lam_a.coeff(d) + (1 - th) * lam_b.coeff(d) for d in (2, 3, 9)}
        )
        pa = compile_constraint(lam_a, 0.02, T, ZT, XI).pi
        pb = compile_constraint(lam_b, 0.06, T, ZT, XI).pi
        pm = compile_constraint(mixed, th * 0.02 + (1 - th) * 0.06, T, ZT, XI).pi
        blend = th * pa + (1 - th) * pb
        scale = np.max(np.abs(blend)) + 1.0
        assert np.max(np.abs(pm - blend)) < 1e-10 * scale

    def test_wrong_affine_vector_length_rejected(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        cp = compile_constraint(DegreeDistribution({2: 0.5, 3: 0.5}), 0.0, T, ZT, XI)
        with pytest.raises(ValueError):
            cp.affine(np.array([0.5]), 0.0)

    def test_negative_t_rejected(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        with pytest.raises(ValueError):
            compile_constraint(DegreeDistribution({2: 1.0}), -1e-9, T, ZT, XI)

    def test_anchor_must_lie_left_of_xi(self, rho_mix):
        T = taylor_general(rho_mix, 0.48, 24)
        with pytest.raises(DomainError):
            compile_constraint(DegreeDistribution({2: 1.0}), 0.0, T, XI, XI)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_cross_check_failure_raises(self, rho_mix, monkeypatch):
        # an overflowed product row poisons both forms of pi; the check
        # must raise even under python -O
        real = sip_compile._product_rows

        def overflowed(zeta_tilde, xi, D):
            rows = real(zeta_tilde, xi, D).copy()
            rows[-1, -1] = np.inf
            return rows

        monkeypatch.setattr(sip_compile, "_product_rows", overflowed)
        T = taylor_general(rho_mix, 0.48, 24)
        with pytest.raises(NumericalFailure, match="single-sum form"):
            compile_constraint(DegreeDistribution({2: 0.5, 3: 0.5}), 0.01, T, ZT, XI)

    def test_zero_anchor_allowed(self, rho_mix):
        # the rate-maximization setting anchors at zero, which the grouped
        # product form handles without dividing by zeta_tilde
        T = taylor_general(rho_mix, 0.48, 24)
        cp = compile_constraint(DegreeDistribution({2: 0.5, 3: 0.5}), 0.0, T, 0.0, XI)
        assert cp.pi[0] == pytest.approx(0.0, abs=1e-15)


class TestNonnegativityDecision:
    def test_square_passes(self):
        cert = nonneg_on_halfline(np.array([0.0, 0.0, 1.0]))
        assert cert.passed and cert.kind == "SturmPass"

    def test_dip_below_zero_fails_with_witness(self):
        cert = nonneg_on_halfline(np.array([0.0, -1.0, 1.0]))
        assert not cert.passed
        assert 0.0 < cert.witness_u < 1.5
        assert cert.witness_value < 0.0

    def test_positive_constant_passes_with_its_margin(self):
        cert = nonneg_on_halfline(np.array([2.5]))
        assert cert.passed and cert.margin == pytest.approx(2.5)

    def test_negative_constant_fails_at_origin(self):
        cert = nonneg_on_halfline(np.array([-0.5, 1.0, 1.0]))
        assert not cert.passed and cert.witness_u == 0.0

    def test_negative_leading_coefficient_fails_far_out(self):
        cert = nonneg_on_halfline(np.array([1.0, 1.0, -0.01]))
        assert not cert.passed
        assert cert.witness_u > 1.0

    def test_all_zero_passes(self):
        assert nonneg_on_halfline(np.zeros(5)).passed

    def test_verdicts_match_dense_scan_on_random_polynomials(self, rng):
        # build guaranteed-nonnegative p = q1^2 + u*q2^2, then knock some
        # below zero with a subtracted constant; skip draws inside the
        # ambiguity band around zero margin
        checked = 0
        for _ in range(200):
            q1 = rng.normal(size=3)
            q2 = rng.normal(size=2)
            p = np.convolve(q1, q1)
            p2 = np.convolve(q2, q2)
            p[1 : 1 + p2.size] += p2
            if rng.uniform() < 0.5:
                p[0] -= rng.uniform(0.05, 0.5) * np.max(np.abs(p))
            us = np.linspace(0.0, 1.0, 4001)
            vals_lo = npoly.polyval(us, p)
            vals_hi = npoly.polyval(us[1:], p[::-1]) / us[1:] ** (p.size - 1)
            lo = min(float(vals_lo.min()), float(vals_hi.min()))
            scale = float(np.max(np.abs(p)))
            if abs(lo) < 1e-7 * scale:
                continue
            cert = nonneg_on_halfline(p)
            assert cert.passed == (lo > 0.0), (p, lo)
            checked += 1
        assert checked >= 100


class TestGramMatrix:
    def test_psd_quadratic_equalities(self):
        # u^2 - u + 1 is positive on the half line: Gram over (1, y, y^2)
        # must hit pi on the even anti-diagonals and zero on the odd ones
        pi = np.array([1.0, -1.0, 1.0])
        g = gram_matrix(pi)
        assert g is not None
        assert g[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert g[2, 2] == pytest.approx(1.0, abs=1e-9)
        assert g[0, 2] + g[1, 1] + g[2, 0] == pytest.approx(-1.0, abs=1e-9)
        assert g[0, 1] + g[1, 0] == pytest.approx(0.0, abs=1e-9)
        assert gram_residual(pi, g) < 1e-9
        assert np.linalg.eigvalsh(g).min() > -1e-9

    def test_negative_dip_has_no_gram(self):
        assert gram_matrix(np.array([0.0, -1.0, 1.0])) is None

    def test_sum_of_two_squares_form_recovered(self, rng):
        for _ in range(10):
            q1 = rng.normal(size=4)
            q2 = rng.normal(size=3)
            p = np.convolve(q1, q1)
            p2 = np.convolve(q2, q2)
            p[1 : 1 + p2.size] += p2
            g = gram_matrix(p)
            assert g is not None
            assert gram_residual(p, g) < 1e-9 * max(1.0, np.max(np.abs(p)))
            assert np.linalg.eigvalsh(g).min() > -1e-9

    def test_zero_polynomial_gets_zero_gram(self):
        g = gram_matrix(np.zeros(4))
        assert g is not None and np.all(g == 0.0)


class TestCertify:
    def test_wrapper_matches_halfline_decision(self):
        # u^2 - u + 0.2 dips to -0.05 at u = 0.5
        cp = ConstraintPolynomial.from_coefficients([0.2, -1.0, 1.0])
        cert = certify(cp)
        assert not cert.passed
        x_bad = mobius_x_of_u(cp.zeta_tilde, cp.xi, cert.witness_u)
        assert cp.zeta_tilde <= x_bad < cp.xi

    def test_gram_upgrade_on_pass(self):
        cp = ConstraintPolynomial.from_coefficients([1.0, -1.0, 1.0])
        cert = certify(cp, want_gram=True)
        assert cert.passed and cert.kind == "GramMatrix"
        assert gram_residual(cp.pi, cert.gram) < 1e-9

    def test_compiled_design_straddles_utility_level(self, rho_mix):
        # just below the exact min of (psi_T - lam)/psi_T' the constraint
        # holds; just above it must fail
        from ldpc_forge import DEContext

        eps = 0.3
        ctx = DEContext.create(rho_mix, eps, 1e-4)
        T = taylor_general(rho_mix, eps, 40)
        lam = DegreeDistribution({2: 0.2, 3: 0.3, 9: 0.5})
        zt = 0.02
        xs = np.linspace(zt, ctx.xi, 50_001)
        ratio = (T.eval(xs) - lam.eval(xs)) / T.eval_deriv(xs)
        t_star = float(ratio.min())
        assert t_star > 0
        below = certify(compile_constraint(lam, t_star * 0.999, T, zt, ctx.xi))
        above = certify(compile_constraint(lam, t_star * 1.001, T, zt, ctx.xi))
        assert below.passed
        assert not above.passed
        x_bad = mobius_x_of_u(zt, ctx.xi, above.witness_u)
        assert abs(x_bad - xs[int(np.argmin(ratio))]) < 0.05
