"""The step constraint compiled to an exact polynomial in s, and its certificate."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from helpers import (bernstein_from_power, bernstein_oracle, columns_reference,
                     compose_reference, exact_bernstein_value, exact_columns, exact_step_pieces,
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
        # the Bernstein coefficients of a linear P are its end values, at
        # z = a and at z = b, which carries the bisection residual of z(ZT)
        want = [(1 - EPS_LINEAR) * EPS_LINEAR - t, (1 - EPS_LINEAR) * (1.0 - cp.b) - t]
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
        # s = 0 is x = xi and s = 1 is x = zeta_tilde; P = eps*rho'(z)*gap, and
        # the end Bernstein coefficients are P's end values
        eps = 0.48
        ctx = DEContext.create(rho_mix, eps, 1e-4)
        lam = DegreeDistribution({2: 0.15, 3: 0.45, 16: 0.40})
        t = 0.002
        cp = compile_constraint(lam, t, rho_mix, eps, ZT, ctx.xi)
        ends = np.array([0.0, 1.0])
        xs, gaps = _kernels.transfer_gap_scan(lam.dense, rho_mix.dense, eps, t, cp.z_of(ends))
        weights = eps * rho_mix.eval_deriv(cp.z_of(ends))
        for x_end, x, gap, p, w in zip(xs, (ctx.xi, ZT), gaps, cp.coeffs[[0, -1]], weights):
            assert x_end == pytest.approx(x, abs=1e-11)
            want = psi(ctx, x) - lam.eval(x) - t * psi_deriv(ctx, x)
            assert gap == pytest.approx(want, rel=1e-8, abs=1e-12)
            assert p / w == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_sampled_equivalence_with_direct_gap(self, rng, rho_mix):
        # the curve-unit value P/(eps*rho') at s = k/32, by de Casteljau, against
        # psi and psi' found by bisection at x(s)
        eps = 0.48
        ctx = DEContext.create(rho_mix, eps, 1e-4)
        for _ in range(3):
            lam = random_simplex_lambda(rng, d_v=16)
            t = float(rng.uniform(0.0, 0.1))
            zt = float(rng.uniform(0.005, 0.1))
            cp = compile_constraint(lam, t, rho_mix, eps, zt, ctx.xi)
            zs = cp.z_of(np.linspace(0.0, 1.0, 33))
            xs = np.clip(1.0 - rho_mix.eval(zs), zt, ctx.xi)
            got = sip_compile._values(cp.coeffs, 5) / (eps * rho_mix.eval_deriv(zs))
            want = psi(ctx, xs) - lam.eval(xs) - t * psi_deriv(ctx, xs)
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("name", ["x7_coc_r045", "mix_dv16"])
    def test_matches_50_digit_oracle(self, fixtures, rng, name):
        f = fixtures.get(name)
        e = f.ensemble
        ctx = fixture_context(f)
        zt = 0.5 * ctx.zeta
        t = utility(e.lam, ctx, zeta_tilde=zt).value
        cp = compile_constraint(e.lam, t, e.rho, ctx.epsilon, zt, ctx.xi)
        ss = rng.uniform(0.0, 1.0, 64)
        want = np.array(step_polynomial_oracle(e.lam.coeffs, e.rho.coeffs, ctx.epsilon, t,
                                               cp.a, cp.b, ss))
        # the float coefficients evaluated exactly: each is within cp.error
        got = np.array([float(exact_bernstein_value(cp.coeffs, s)) for s in ss])
        assert np.all(np.abs(got - want) <= cp.error + 2.0**-52 * np.abs(want))
        # the chart ends where the interval does
        assert 1.0 - e.rho.eval(cp.b) == pytest.approx(zt, abs=1e-11)
        assert cp.a == 1.0 - ctx.epsilon

    def test_affine_reconstruction_matches_pi(self, rho_mix):
        # P(lam, t) rebuilt from per-degree columns (lam = x^(j-1), t = 0) and
        # the t column; the columns combine affinely because sum lam_j = 1
        eps, xi = 0.48, DEContext.create(rho_mix, 0.48, 1e-4).xi
        lam = DegreeDistribution({2: 0.2, 3: 0.4, 9: 0.4})
        t = 0.01
        # per-degree columns differ in degree, so they are compared by their
        # values at s = k/16 (de Casteljau), which combine as the coefficients do
        def values(lam_j, t_j):
            cp = compile_constraint(lam_j, t_j, rho_mix, eps, ZT, xi)
            return sip_compile._values(cp.coeffs, 4)

        pi = values(lam, t)
        cols = {j: values(DegreeDistribution({j: 1.0}), 0.0) for j in range(2, 10)}
        t_col = values(DegreeDistribution({2: 1.0}), 1.0) - cols[2]
        rebuilt = t * t_col
        for j, col in cols.items():
            rebuilt += lam.coeff(j) * col
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
        assert cp.coeffs[-1] == pytest.approx(0.0, abs=1e-12)


class TestNonnegativityDecision:
    # inputs are Bernstein coefficients of degree 2: p = b0*(1 - s)^2 + 2*b1*s*(1 - s) + b2*s^2;
    # the subdivision returns None on a pass and a proved (s, p(s)) with p(s) < 0 on a fail
    def test_square_passes(self):
        assert sip_compile._negative_point(np.array([0.0, 0.0, 1.0]), 0.0) is None  # s^2

    def test_touch_point_inside_passes(self):
        # (3s - 1)^2
        assert sip_compile._negative_point(np.array([1.0, -2.0, 4.0]), 0.0) is None

    def test_dip_below_zero_fails_with_witness(self):
        s, value = sip_compile._negative_point(np.array([0.0, -0.5, 0.0]), 0.0)  # s^2 - s
        assert 0.0 < s < 1.0
        assert value < 0.0

    def test_positive_constant_passes(self):
        assert sip_compile._negative_point(np.array([2.5]), 0.0) is None

    def test_negative_constant_fails_at_origin(self):
        # -0.5 + s + s^2
        s, _ = sip_compile._negative_point(np.array([-0.5, 0.0, 1.5]), 0.0)
        assert s == 0.0

    def test_negative_leading_coefficient_fails_far_out(self):
        # 1 + s - 2.5 s^2 crosses zero at s = 0.863
        s, _ = sip_compile._negative_point(np.array([1.0, 1.5, -0.5]), 0.0)
        assert 0.86 < s <= 1.0

    def test_all_zero_passes(self):
        assert sip_compile._negative_point(np.zeros(5), 0.0) is None

    def test_verdicts_match_dense_scan_on_random_polynomials(self, rng):
        # build guaranteed-nonnegative p = q1^2 + s*q2^2, then knock some
        # below zero with a subtracted constant; skip draws inside the
        # ambiguity band around zero margin, which also holds the rounding
        # of the exact conversion to Bernstein form
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
            passed = sip_compile._negative_point(bernstein_from_power(p), 0.0) is None
            assert passed == (lo > 0.0), (p, lo)
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
        # a work count, not a clock: every piece halved passes the spy; the
        # fixture is compiled first, so only the certificate's halvings count
        halved = []
        real = sip_compile._halve
        cp = _sturm_fixture()

        def spy(pieces, left, right):
            halved.append(pieces.shape[0])
            return real(pieces, left, right)

        monkeypatch.setattr(sip_compile, "_halve", spy)
        assert certify(cp).passed
        assert 0 < sum(halved) <= 40

    def test_depth_cap_raises_on_touch_point(self, monkeypatch):
        # (3s - 1)^2 touches zero off every dyadic point, so the piece
        # around 1/3 closes only once its coefficients are within tau
        c = np.array([1.0, -2.0, 4.0])
        assert sip_compile._negative_point(c, 0.0) is None
        monkeypatch.setattr(sip_compile, "_MAX_DEPTH", 1)
        with pytest.raises(NumericalFailure, match=r"1 open piece\(s\) after 1 halvings"):
            sip_compile._negative_point(c, 0.0)

    @pytest.mark.parametrize("d_c, d_v", [(35, 30), (511, 2)])
    def test_degree_at_the_cap_composes(self, d_c, d_v):
        # D = (d_c - 1)*d_v - 1 = 1019: scaled coefficients reach
        # C(1019, 509)*eps*rho'(b), ~1e305 and ~7e307, and must stay finite
        # and agree with the closed form at the check nodes
        rho = DegreeDistribution({d_c: 1.0})
        eps = 0.3
        ctx = DEContext.create(rho, eps, 1e-3)
        lam = DegreeDistribution({2: 0.5, d_v: 0.5}) if d_v > 2 else LAM_LINEAR
        cp = compile_constraint(lam, 0.0, rho, eps, 0.5 * ctx.xi, ctx.xi)
        assert cp.D == 1019
        assert np.isfinite(cp.coeffs).all() and np.isfinite(cp.error)

    def test_degree_past_the_tables_raises(self):
        # C(1100, 550) overflows a float, and nan coefficients would close every piece
        with pytest.raises(NumericalFailure, match="degree 1100 exceeds the 1020"):
            sip_compile._negative_point(np.ones(1101), 0.0)

    @pytest.mark.parametrize("coeffs", [[np.inf, -1.0], [np.nan, 1.0]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="must be finite"):
            sip_compile._negative_point(np.array(coeffs), 0.0)


@pytest.fixture(scope="module")
def certified(rho_x7, fixtures):
    """The first constraint each design certifies, as its compiled polynomial."""
    seen = []

    def spy(cp):
        seen.append(cp)
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
    polys["regression"] = _sturm_fixture()
    return polys


class TestExactOracle:
    """The float composition and subdivision against exact rationals."""

    def test_float_verdict_is_the_exact_verdict(self, certified):
        for name, cp in certified.items():
            want = name != "fig6_refinement"
            assert bernstein_oracle(cp.coeffs) is want, name
            assert (sip_compile._negative_point(cp.coeffs, 0.0) is None) is want, name
            assert certify(cp).passed is want, name

    def test_float_coefficients_lie_within_tau(self, certified):
        # tau_0 = cp.error for the composition, tau_1 for one halving, each
        # against P composed in exact rationals from the same float inputs
        for name, cp in certified.items():
            exact, exact_half = exact_step_pieces(cp)
            tau_1 = cp.error + (2 * cp.D + 1) * 2.0**-52 * (np.max(np.abs(cp.coeffs))
                                                            + 2.0 * cp.error)
            _, left, right = sip_compile._bernstein_tables(cp.D)
            half = sip_compile._halve(cp.coeffs[None, :], left, right)[0]
            for got, want, tau in ((cp.coeffs, exact, cp.error), (half, exact_half, tau_1)):
                err = max(abs(Fraction(float(g)) - w) for g, w in zip(got, want))
                assert err <= tau, name

    @pytest.mark.parametrize("name", ["x7_coc_r045", "mix_dv16"])
    def test_columns_match_exact_rationals(self, fixtures, name):
        f = fixtures.get(name)
        ctx = fixture_context(f)
        for zt in (0.5 * ctx.zeta, ctx.zeta):
            a, b, cols, _ = sip_compile._columns(f.ensemble.rho, ctx.epsilon, 16, zt)
            exact = exact_columns(f.ensemble.rho, ctx.epsilon, 16, a, b)
            err = max(abs(Fraction(float(g)) - w)
                      for row, want in zip(cols, exact) for g, w in zip(row, want))
            assert err <= 1e-14, zt


class TestStepRows:
    def test_rows_are_the_certified_polynomial(self, rho_x7):
        # the utility LP's rows at the design's (lam, t) are the Bernstein
        # coefficients of the polynomial its certificate decides, piece by
        # piece; both are within tau_3 of the exact ones (`_negative_point`)
        spec = DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45, d_v=16)
        rep = design_utility(spec)
        zt = rep.zeta_tilde
        A, b = sip_compile.step_rows(rho_x7, 0.5, 16, zt, 3)
        vec = np.append([rep.lam.coeff(j) for j in range(2, 17)], rep.t)
        rows = (b - A @ vec) / A[:, -1]  # the t column is 1 before scaling
        cp = compile_constraint(rep.lam, rep.t, rho_x7, 0.5, zt, spec.context().xi)
        pieces = sip_compile._pieces(cp.coeffs[None, :], 3)
        assert rows.size == pieces.size == 8 * (cp.D + 1)
        assert np.all(A >= 0.0)
        tau_3 = cp.error + 3 * (2 * cp.D + 1) * 2.0**-52 * (np.max(np.abs(cp.coeffs))
                                                             + 2.0 * cp.error)
        assert np.max(np.abs(rows - pieces.ravel())) <= 2.0 * tau_3


FIXTURE_NAMES = [f.name for f in load_fixtures()]


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNpolyReferences:
    """The in-place Horner, the cached Pascal tables and the composition
    against numpy's polynomial routines and references built afresh, byte
    for byte, on every fixture."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_compose_and_columns(self, fixtures, name):
        f = fixtures.get(name)
        rho, ctx, d_v = f.ensemble.rho, fixture_context(f), f.params["d_v"]
        for zt in (0.0, ctx.zeta):
            a, b, cols, bound = sip_compile._columns(rho, ctx.epsilon, d_v, zt)
            ra, rb, rcols, rbound = columns_reference(rho, ctx.epsilon, d_v, zt)
            assert (a, b, bound) == (ra, rb, rbound)
            assert _same_bytes(cols, rcols)
            pascal, _, _ = sip_compile._bernstein_tables(cols.shape[1] - 1)
            z = np.array([a, b])
            for c in (rho.dense, npoly.polyder(rho.dense), f.ensemble.lam.dense):
                assert _same_bytes(sip_compile._compose(c, z, pascal),
                                   compose_reference(c, z, pascal))

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
        # the same polynomial lowered until it fails, so the subdivision finds a
        # witness; lowering every Bernstein coefficient lowers p by as much
        lowered = coeffs - (abs(margin_reference(coeffs)) + 1e-3)
        for a in (coeffs, lowered):
            proved = sip_compile._negative_point(a, 0.0)
            if proved is not None:
                assert exact_bernstein_value(a, proved[0]) < 0  # a fail proves p < 0 there
        assert sip_compile._negative_point(lowered, 0.0) is not None

    def test_bernstein_tables_are_cached_and_read_only(self):
        tables = sip_compile._bernstein_tables(111)
        assert sip_compile._bernstein_tables(111) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
