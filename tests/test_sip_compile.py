"""The step constraint compiled to an exact polynomial in s, and its certificate."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from helpers import (bernstein_oracle, columns_reference, compose_reference, exact_bernstein,
                     fixture_context, margin_reference, random_simplex_lambda,
                     step_polynomial_oracle, step_rows_reference)
from ldpc_forge.cli import load_fixtures
from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    DesignSpec,
    DomainError,
    NumericalFailure,
    _kernels,
    certify,
    compile_constraint,
    design_min_iterations,
    design_rate,
    design_utility,
    nonneg_on_unit,
    psi,
    psi_deriv,
    utility,
)
from ldpc_forge import sip_compile, solve

ZT = 0.04
# rho = x: x = 1 - z, psi = x/eps, and with lam = x the constraint is
# P(z) = (1 - eps)(1 - z) - t, linear in z
RHO_LINEAR = DegreeDistribution({2: 1.0})
LAM_LINEAR = DegreeDistribution({2: 1.0})
EPS_LINEAR = 0.5

# a rate design for this mix cell that comes within 1e-9 of zero at
# several points, so a decision must resolve it on narrow pieces
STURM_RHO = DegreeDistribution({7: 0.533, 8: 0.467})
STURM_EPS = 0.492578125
STURM_LAM = DegreeDistribution({
    2: float.fromhex("0x1.41075b8932cfbp-2"), 3: float.fromhex("0x1.2701018e62260p-3"),
    4: float.fromhex("0x1.267cde5735e02p-8"), 5: float.fromhex("0x1.b5831effa13fcp-3"),
    16: float.fromhex("0x1.4c1ca0b66ea60p-2")})


def _sturm_fixture() -> sip_compile.ConstraintPolynomial:
    ctx = DEContext.create(STURM_RHO, STURM_EPS, eta=STURM_EPS * 1e-6)
    return compile_constraint(STURM_LAM, 0.0, STURM_RHO, STURM_EPS, ctx.zeta, ctx.xi)


class TestCompile:
    def test_hand_built_identity_gap(self):
        # z runs from a = 1 - eps (x = xi = eps) to b = 1 - zeta_tilde
        t = 0.01
        cp = compile_constraint(LAM_LINEAR, t, RHO_LINEAR, EPS_LINEAR, ZT, EPS_LINEAR)
        assert cp.D == 1
        assert cp.a == 0.5 and cp.b == pytest.approx(1.0 - ZT, abs=1e-12)
        want = [(1 - EPS_LINEAR) * EPS_LINEAR - t, -(1 - EPS_LINEAR) * (EPS_LINEAR - ZT)]
        assert np.allclose(cp.coeffs, want, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("d_v", [2, 16, 30])
    def test_degree_is_exact(self, rho_x7, rho_mix, d_v):
        lam = DegreeDistribution({2: 0.5, d_v: 0.5}) if d_v > 2 else LAM_LINEAR
        for rho in (rho_x7, rho_mix):
            d_c = rho.d_max
            ctx = DEContext.create(rho, 0.45, 1e-3)
            cp = compile_constraint(lam, 0.0, rho, 0.45, 0.5 * ctx.zeta, ctx.xi)
            assert cp.D == (d_c - 2) + (d_c - 1) * (d_v - 1)
            assert cp.coeffs.size == cp.D + 1

    def test_end_values_are_scaled_gaps(self, rho_mix):
        # s = 0 is x = xi and s = 1 is x = zeta_tilde; P = eps*rho'(z)*gap
        eps = 0.48
        ctx = DEContext.create(rho_mix, eps, 1e-4)
        lam = DegreeDistribution({2: 0.15, 3: 0.45, 16: 0.40})
        t = 0.002
        cp = compile_constraint(lam, t, rho_mix, eps, ZT, ctx.xi)
        for s, x in ((0.0, ctx.xi), (1.0, ZT)):
            assert float(cp.x_of(s)) == pytest.approx(x, abs=1e-11)
            gap = psi(ctx, x) - lam.eval(x) - t * psi_deriv(ctx, x)
            assert float(cp.curve_gap(s)) == pytest.approx(gap, rel=1e-8, abs=1e-12)

    def test_sampled_equivalence_with_direct_gap(self, rng, rho_mix):
        # the curve-unit value P/(eps*rho') against psi and psi' found by
        # bisection at x(s)
        eps = 0.48
        ctx = DEContext.create(rho_mix, eps, 1e-4)
        for _ in range(3):
            lam = random_simplex_lambda(rng, d_v=16)
            t = float(rng.uniform(0.0, 0.1))
            zt = float(rng.uniform(0.005, 0.1))
            cp = compile_constraint(lam, t, rho_mix, eps, zt, ctx.xi)
            ss = np.linspace(0.0, 1.0, 41)
            xs = cp.x_of(ss)
            want = psi(ctx, xs) - lam.eval(xs) - t * psi_deriv(ctx, xs)
            assert np.max(np.abs(cp.curve_gap(ss) - want)) < 1e-8

    @pytest.mark.parametrize("name", ["x7_coc_r045", "mix_dv16"])
    def test_matches_50_digit_oracle(self, fixtures, rng, name):
        f = fixtures.get(name)
        e = f.ensemble
        ctx = fixture_context(f)
        zt = 0.5 * ctx.zeta
        t = utility(e.lam, ctx, zeta_tilde=zt).value
        cp = compile_constraint(e.lam, t, e.rho, ctx.epsilon, zt, ctx.xi)
        ss = rng.uniform(0.0, 1.0, 64)
        want = step_polynomial_oracle(e.lam.coeffs, e.rho.coeffs, ctx.epsilon, t,
                                      cp.a, cp.b, ss)
        got = npoly.polyval(ss, cp.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(cp.coeffs))
        # the chart ends where the interval does
        assert 1.0 - e.rho.eval(cp.b) == pytest.approx(zt, abs=1e-11)
        assert cp.a == 1.0 - ctx.epsilon

    def test_affine_reconstruction_matches_pi(self, rho_mix):
        # P(lam, t) rebuilt from per-degree columns (lam = x^(j-1), t = 0) and
        # the t column; the columns combine affinely because sum lam_j = 1
        eps, xi = 0.48, DEContext.create(rho_mix, 0.48, 1e-4).xi
        lam = DegreeDistribution({2: 0.2, 3: 0.4, 9: 0.4})
        t = 0.01
        pi = compile_constraint(lam, t, rho_mix, eps, ZT, xi).coeffs
        cols = {j: compile_constraint(DegreeDistribution({j: 1.0}), 0.0, rho_mix, eps, ZT,
                                      xi).coeffs for j in range(2, 10)}
        t_col = (compile_constraint(DegreeDistribution({2: 1.0}), 1.0, rho_mix, eps, ZT,
                                    xi).coeffs - cols[2])
        rebuilt = np.zeros_like(pi)
        for j, col in cols.items():
            rebuilt[:col.size] += lam.coeff(j) * col
        rebuilt[:t_col.size] += t * t_col
        assert np.allclose(rebuilt, pi, rtol=1e-12, atol=1e-12 * np.sum(np.abs(pi)))

    def test_compilation_is_affine_in_decision_variables(self, rho_mix):
        eps, xi = 0.48, DEContext.create(rho_mix, 0.48, 1e-4).xi
        lam_a = DegreeDistribution({2: 0.3, 3: 0.3, 9: 0.4})
        lam_b = DegreeDistribution({2: 0.1, 3: 0.5, 9: 0.4})
        th = 0.37
        mixed = DegreeDistribution(
            {d: th * lam_a.coeff(d) + (1 - th) * lam_b.coeff(d) for d in (2, 3, 9)}
        )
        pa = compile_constraint(lam_a, 0.02, rho_mix, eps, ZT, xi).coeffs
        pb = compile_constraint(lam_b, 0.06, rho_mix, eps, ZT, xi).coeffs
        pm = compile_constraint(mixed, th * 0.02 + (1 - th) * 0.06, rho_mix, eps, ZT, xi).coeffs
        blend = th * pa + (1 - th) * pb
        assert np.max(np.abs(pm - blend)) < 1e-12 * np.sum(np.abs(blend))

    def test_negative_t_rejected(self, rho_mix):
        with pytest.raises(ValueError):
            compile_constraint(LAM_LINEAR, -1e-9, rho_mix, 0.48, ZT, 0.7)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, rho_mix, t):
        with pytest.raises(ValueError, match="t must be finite"):
            compile_constraint(LAM_LINEAR, t, rho_mix, 0.48, ZT, 0.7)

    def test_anchor_must_lie_left_of_xi(self, rho_mix):
        with pytest.raises(DomainError):
            compile_constraint(LAM_LINEAR, 0.0, rho_mix, 0.48, 0.7, 0.7)

    def test_cross_check_failure_raises(self, rho_mix, monkeypatch):
        # a closed form that disagrees at the check nodes must raise, also
        # under python -O
        real = _kernels.transfer_step

        def shifted(lam_c, rho_c, eps, zs):
            xs, step = real(lam_c, rho_c, eps, zs)
            return xs, step + 1e-6

        monkeypatch.setattr(_kernels, "transfer_step", shifted)
        with pytest.raises(NumericalFailure, match="closed form"):
            compile_constraint(DegreeDistribution({2: 0.5, 3: 0.5}), 0.01, rho_mix,
                               0.48, ZT, 0.7)

    def test_zero_anchor_allowed(self, rho_mix):
        # the rate-maximization setting anchors at x = 0, i.e. z = 1, where
        # the gap is exactly -t*psi'(0)
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        cp = compile_constraint(DegreeDistribution({2: 0.5, 3: 0.5}), 0.0, rho_mix,
                                0.48, 0.0, ctx.xi)
        assert cp.b == 1.0
        assert float(npoly.polyval(1.0, cp.coeffs)) == pytest.approx(0.0, abs=1e-12)


class TestNonnegativityDecision:
    def test_square_passes(self):
        cert = nonneg_on_unit(np.array([0.0, 0.0, 1.0]))
        assert cert.passed and cert.kind == "SturmPass"

    def test_touch_point_inside_passes(self):
        cert = nonneg_on_unit(np.array([0.09, -0.6, 1.0]))  # (s - 0.3)^2
        assert cert.passed

    def test_dip_below_zero_fails_with_witness(self):
        cert = nonneg_on_unit(np.array([0.0, -1.0, 1.0]))
        assert not cert.passed
        assert 0.0 < cert.witness < 1.0
        assert cert.witness_value < 0.0

    def test_positive_constant_passes_with_its_margin(self):
        cert = nonneg_on_unit(np.array([2.5]))
        assert cert.passed and cert.margin == pytest.approx(2.5)

    def test_negative_constant_fails_at_origin(self):
        cert = nonneg_on_unit(np.array([-0.5, 1.0, 1.0]))
        assert not cert.passed and cert.witness == 0.0

    def test_negative_leading_coefficient_fails_far_out(self):
        # 1 + s - 2.5 s^2 crosses zero at s = 0.863
        cert = nonneg_on_unit(np.array([1.0, 1.0, -2.5]))
        assert not cert.passed
        assert 0.86 < cert.witness <= 1.0

    def test_all_zero_passes(self):
        assert nonneg_on_unit(np.zeros(5)).passed

    def test_verdicts_match_dense_scan_on_random_polynomials(self, rng):
        # build guaranteed-nonnegative p = q1^2 + s*q2^2, then knock some
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
            lo = float(npoly.polyval(np.linspace(0.0, 1.0, 4001), p).min())
            if abs(lo) < 1e-7 * float(np.max(np.abs(p))):
                continue
            cert = nonneg_on_unit(p)
            assert cert.passed == (lo > 0.0), (p, lo)
            checked += 1
        assert checked >= 100


class TestCertify:
    def test_wrapper_reports_curve_units_and_x(self):
        # (1 - eps)(1 - z) - t is smallest at x = zeta_tilde, where the
        # curve gap is (1 - eps)*zeta_tilde/eps - t/eps
        t = 0.03
        cp = compile_constraint(LAM_LINEAR, t, RHO_LINEAR, EPS_LINEAR, ZT, EPS_LINEAR)
        cert = certify(cp)
        assert not cert.passed and cert.kind == "SturmFail"
        assert ZT <= cert.witness <= EPS_LINEAR
        x = cert.witness
        gap = x / EPS_LINEAR - x - t / EPS_LINEAR
        assert cert.witness_value == pytest.approx(gap, rel=1e-9)
        assert cert.margin == pytest.approx((1 - EPS_LINEAR) * ZT / EPS_LINEAR - t / EPS_LINEAR,
                                            rel=1e-9)

    @pytest.mark.parametrize("name", ["x7_coc_r045", "mix_dv16"])
    def test_brackets_utility(self, fixtures, name):
        f = fixtures.get(name)
        e = f.ensemble
        ctx = fixture_context(f)
        zt = 0.5 * ctx.zeta
        u = utility(e.lam, ctx, zeta_tilde=zt)
        assert u.value > 0.0

        def cert_at(factor):
            return certify(compile_constraint(e.lam, u.value * factor, e.rho,
                                              ctx.epsilon, zt, ctx.xi))

        below, above = cert_at(1.0 - 1e-3), cert_at(1.0 + 1e-3)
        assert below.passed and below.margin > 0.0
        assert not above.passed
        assert abs(above.witness - u.argmin_x) < 0.05
        assert above.witness_value < 0.0


class TestSubdivision:
    def test_regression_fixture_decides_in_few_halvings(self, monkeypatch):
        # a work count, not a clock: every piece halved passes the spy
        halved = []
        real = sip_compile._halve

        def spy(pieces, left, right):
            halved.append(pieces.shape[0])
            return real(pieces, left, right)

        monkeypatch.setattr(sip_compile, "_halve", spy)
        assert certify(_sturm_fixture()).passed
        assert 0 < sum(halved) <= 40

    def test_depth_cap_raises_on_touch_point(self, monkeypatch):
        # (s - 0.3)^2 touches zero off every dyadic point, so the piece
        # around 0.3 closes only once its coefficients are within tau
        c = np.array([0.09, -0.6, 1.0])
        assert nonneg_on_unit(c).passed
        monkeypatch.setattr(sip_compile, "_MAX_DEPTH", 1)
        with pytest.raises(NumericalFailure, match=r"1 open piece\(s\) after 1 halvings"):
            nonneg_on_unit(c)

    def test_degree_past_the_tables_raises(self):
        # C(1100, 550) overflows a float, and nan coefficients would close every piece
        with pytest.raises(NumericalFailure, match="degree 1100 exceeds the 1020"):
            nonneg_on_unit(np.ones(1101))

    @pytest.mark.parametrize("coeffs", [[np.inf, -1.0], [np.nan, 1.0]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="must be finite"):
            nonneg_on_unit(coeffs)


@pytest.fixture(scope="module")
def certified(rho_x7, fixtures):
    """The first constraint each design certifies, as power coefficients in s."""
    seen = []

    def spy(cp):
        seen.append(cp.coeffs)
        return certify(cp)

    f = fixtures.get("mix_dv16")
    fig5 = DesignSpec(rho=f.ensemble.rho, epsilon=f.params["epsilon"], eta=f.params["eta"],
                      R_d=0.5, d_v=16)
    runs = {
        "fig2_utility": lambda: design_utility(
            DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45, d_v=16)),
        "rate_x7": lambda: design_rate(rho_x7, 0.5, 16),
        "fig5_min_iter": lambda: design_min_iterations(fig5),
        # the Fig. 6 cell whose first grid LP crosses psi between its rows
        "fig6_refinement": lambda: design_rate(rho_x7, 0.48, 8),
    }
    polys = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solve, "certify", spy)
        for name, run in runs.items():
            seen.clear()
            run()
            polys[name] = seen[0]
    polys["regression"] = _sturm_fixture().coeffs
    return polys


class TestExactOracle:
    """The float subdivision against exact-rational Bernstein subdivision."""

    def test_float_verdict_is_the_exact_verdict(self, certified):
        for name, a in certified.items():
            want = name != "fig6_refinement"
            assert bernstein_oracle(a) is want, name
            assert nonneg_on_unit(a).passed is want, name

    def test_float_coefficients_lie_within_tau(self, certified):
        # tau_0 for the conversion, tau_1 for one halving; the left half is
        # p(s/2), whose power coefficients a_j/2^j are exact in floats
        for name, a in certified.items():
            D = a.size - 1
            to_bern, left, right = sip_compile._bernstein_tables(D)
            b = to_bern @ a
            tau_0 = (3 * D + 2) * 2.0**-52 * np.sum(np.abs(a))
            tau_1 = tau_0 + (2 * D + 1) * 2.0**-52 * (np.max(np.abs(b)) + 2.0 * tau_0)
            half = sip_compile._halve(b[None, :], left, right)[0]
            for got, a_exact, tau in ((b, a, tau_0), (half, a * 0.5 ** np.arange(D + 1), tau_1)):
                exact = exact_bernstein(a_exact)
                err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
                assert err <= tau, name


class TestStepRows:
    def test_rows_are_the_certified_polynomial(self, rho_x7):
        # the utility LP's rows at the design's (lam, t) are the Bernstein
        # coefficients of the polynomial its certificate decides, piece by
        # piece; a row entry is within its column's conversion bound E_j of
        # the exact one or was zeroed below it, so a row is within
        # 2*sum_j |coefficient_j|*E_j (coefficient 1 for the constant column)
        spec = DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45, d_v=16)
        rep = design_utility(spec)
        zt = rep.zeta_tilde
        A, b = sip_compile.step_rows(rho_x7, 0.5, 16, zt, 3)
        vec = np.append([rep.lam.coeff(j) for j in range(2, 17)], rep.t)
        rows = (b - A @ vec) / A[:, -1]  # the t column is 1 before scaling
        cp = compile_constraint(rep.lam, rep.t, rho_x7, 0.5, zt, spec.context().xi)
        to_bern, left, right = sip_compile._bernstein_tables(cp.D)
        pieces = (to_bern @ cp.coeffs)[None, :]
        for _ in range(3):
            pieces = sip_compile._halve(pieces, left, right)
        assert rows.size == pieces.size == 8 * (cp.D + 1)
        _, _, cols = sip_compile._columns(rho_x7, 0.5, 16, zt)
        E = (3 * cp.D + 2) * 2.0**-52 * np.abs(cols).sum(axis=1)
        bound = 2.0 * (E[0] + vec[:-1] @ E[1:])
        assert np.max(np.abs(rows - pieces.ravel())) <= bound


FIXTURE_NAMES = [f.name for f in load_fixtures()]


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNpolyReferences:
    """The in-place Horner and np.convolve paths against numpy's polynomial
    routines, byte for byte, on every fixture."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_compose_and_columns(self, fixtures, name):
        f = fixtures.get(name)
        rho, ctx, d_v = f.ensemble.rho, fixture_context(f), f.params["d_v"]
        for zt in (0.0, ctx.zeta):
            a, b, cols = sip_compile._columns(rho, ctx.epsilon, d_v, zt)
            ra, rb, rcols = columns_reference(rho, ctx.epsilon, d_v, zt)
            assert (a, b) == (ra, rb)
            assert _same_bytes(cols, rcols)
            z_s = np.array([a, b - a])
            for c in (rho.dense, npoly.polyder(rho.dense), f.ensemble.lam.dense):
                assert _same_bytes(sip_compile._compose(c, z_s), compose_reference(c, z_s))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_step_rows(self, fixtures, name):
        f = fixtures.get(name)
        rho, ctx, d_v = f.ensemble.rho, fixture_context(f), f.params["d_v"]
        for halvings in range(3, 9):
            A, b = sip_compile.step_rows(rho, ctx.epsilon, d_v, ctx.zeta, halvings)
            rA, rb = step_rows_reference(rho, ctx.epsilon, d_v, ctx.zeta, halvings)
            assert _same_bytes(A, rA) and _same_bytes(b, rb), halvings

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_polyval_and_margin(self, fixtures, name):
        f = fixtures.get(name)
        e, ctx = f.ensemble, fixture_context(f)
        xs = np.linspace(0.0, 1.0, 1001)
        for c in (e.lam.dense, e.rho.dense, npoly.polyder(e.rho.dense)):
            assert _same_bytes(_kernels._polyval(xs, c), npoly.polyval(xs, c))
            assert _same_bytes(_kernels._polyval(0.3, c), npoly.polyval(0.3, c))
        coeffs = compile_constraint(e.lam, 0.0, e.rho, ctx.epsilon, ctx.zeta, ctx.xi).coeffs
        # the same polynomial lowered until it fails, so a witness joins the margin
        lowered = coeffs.copy()
        lowered[0] -= abs(margin_reference(coeffs)) + 1e-3
        for a in (coeffs, lowered):
            assert _same_bytes(_kernels._polyval(sip_compile._SAMPLES, a),
                               npoly.polyval(sip_compile._SAMPLES, a))
            cert = nonneg_on_unit(a)
            assert cert.margin == margin_reference(a, cert.witness)
        assert not nonneg_on_unit(lowered).passed

    def test_bernstein_tables_are_cached_and_read_only(self):
        tables = sip_compile._bernstein_tables(111)
        assert sip_compile._bernstein_tables(111) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
