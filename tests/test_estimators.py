"""Step counting on curve pairs, the code estimates and the utility."""

import numpy as np
import pytest

from helpers import (code_estimates_oracle, fixture_context, random_feasible_pair,
                     utility_oracle)
from ldpc_forge import _kernels
from ldpc_forge import (
    CurvePair,
    DEContext,
    DegenerateGap,
    DegreeDistribution,
    DomainError,
    Ensemble,
    approx_iterations,
    code_curves,
    code_estimates,
    de_trace,
    psi,
    utility,
)
from ldpc_forge.de_engine import z_of_x
from ldpc_forge.estimators import UTILITY_GRID_N


def linear_pair(slope_gap=0.0, const_gap=0.1, a=0.25, b=1.0):
    """f2 = x with f1 = (1-slope_gap)*x - const_gap; valid for small params."""
    f2 = lambda x: np.asarray(x, dtype=float) + 0.0
    f1 = lambda x: (1.0 - slope_gap) * np.asarray(x, dtype=float) - const_gap
    return CurvePair(
        f1=f1, f2=f2, a=a, b=b,
        f1_deriv=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 - slope_gap),
        f2_deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


class TestApproxIterations:
    def test_constant_gap_integrates_exactly(self):
        pair = linear_pair(const_gap=0.02)
        assert approx_iterations(pair) == pytest.approx((1.0 - 0.25) / 0.02, rel=1e-9)

    def test_quadrature_refinement_settles_below_half_step(self, fixtures):
        fx = fixtures.get("mix_acc_r048")
        ctx = DEContext.create(fx.ensemble.rho, 0.48, 1e-4)
        pair = code_curves(fx.ensemble, ctx)
        n1 = approx_iterations(pair, quad_points=10_000)
        n2 = approx_iterations(pair, quad_points=20_000)
        assert abs(n1 - n2) < 0.5

    def test_minimum_node_count_enforced(self):
        with pytest.raises(ValueError):
            approx_iterations(linear_pair(), quad_points=8)

    def test_crossing_curves_rejected(self):
        pair = linear_pair(const_gap=-0.01)
        with pytest.raises(DegenerateGap):
            approx_iterations(pair)

    def test_widening_the_gap_never_increases_the_count(self, rng, rho_mix):
        # integrand f2'/(f2-f1) is pointwise decreasing in the gap
        ctx = DEContext.create(rho_mix, 0.46, 1e-3)
        for _ in range(5):
            pair = random_feasible_pair(rng, rho_mix, 0.46, 1e-3)
            shrunk = CurvePair(
                f1=lambda x, p=pair: 0.9 * p.f1(x),
                f2=pair.f2, a=pair.a, b=pair.b,
                f1_deriv=lambda x, p=pair: 0.9 * p.f1_deriv(x),
                f2_deriv=pair.f2_deriv,
            )
            assert approx_iterations(shrunk) <= approx_iterations(pair) + 1e-9


class TestUtility:
    def test_rate_optimal_code_has_near_zero_utility(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.5, 1e-5)
        res = utility(fx.ensemble.lam, ctx)
        assert abs(res.value) < 0.01
        assert 0.0 <= res.argmin_x <= ctx.xi

    def test_matches_direct_scan(self, fixtures, rho_mix):
        fx = fixtures.get("mix_cmp_utility_090")
        ctx = DEContext.create(rho_mix, fx.params["epsilon"], fx.params["eta"])
        zt = 0.02
        res = utility(fx.ensemble.lam, ctx, zeta_tilde=zt)
        from ldpc_forge import psi, psi_deriv

        xs = np.linspace(zt, ctx.xi, 200_001)
        vals = (psi(ctx, xs) - fx.ensemble.lam.eval(xs)) / psi_deriv(ctx, xs)
        assert res.value == pytest.approx(float(vals.min()), abs=1e-7)

    @pytest.mark.parametrize("name", ["x7_poc", "x7_coc_r045", "mix_eta5", "mix_dv12"])
    def test_matches_high_precision_reference(self, fixtures, name):
        fx = fixtures.get(name)
        e, eps = fx.ensemble, fx.params["epsilon"]
        ctx = DEContext.create(e.rho, eps, fx.params["eta"])
        for zt in (0.5 * ctx.zeta, 2.0 * ctx.zeta):
            res = utility(e.lam, ctx, zeta_tilde=zt)
            want = utility_oracle(e.lam.coeffs, e.rho.coeffs, eps, zt, res.argmin_x)
            assert abs(res.value - want) <= 3e-8 * abs(want), zt

    def test_zeta_tilde_outside_range_rejected(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.5, 1e-5)
        with pytest.raises(DomainError):
            utility(fx.ensemble.lam, ctx, zeta_tilde=ctx.xi)

    def test_shrinking_lambda_raises_utility(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.5, 1e-5)
        lam = fx.ensemble.lam
        smaller = type(lam)({d: 0.9 * v for d, v in lam.coeffs.items()})
        assert utility(smaller, ctx).value > utility(lam, ctx).value


def _utility_grid(lam, ctx, zeta_tilde):
    """`utility`'s z grid and its steps, rebuilt here."""
    zs = np.linspace(z_of_x(ctx.rho, zeta_tilde), 1.0 - ctx.epsilon, UTILITY_GRID_N)
    xs, vals = _kernels.transfer_step(lam.dense, ctx.rho.dense, ctx.epsilon, zs)
    return zs, xs, vals


def _scipy_polish(lam, ctx, zs, xs, vals):
    """`utility` with scipy's bounded Brent search over the grid minimum's two cells.

    The search's minimum is kept where it is <= the grid minimum.
    Returns (value, argmin_x, lo, hi) with [lo, hi] the bracket in z.
    """
    from scipy.optimize import minimize_scalar

    def step(z):
        return float(_kernels.transfer_step(lam.dense, ctx.rho.dense, ctx.epsilon,
                                            np.array([z]))[1][0])

    k = int(np.argmin(vals))
    lo, hi = zs[min(k + 1, zs.size - 1)], zs[max(k - 1, 0)]
    ref = minimize_scalar(step, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if ref.fun <= vals[k]:
        return float(ref.fun), 1.0 - ctx.rho.eval(float(ref.x)), lo, hi
    return float(vals[k]), float(xs[k]), lo, hi


class TestBoundedBrent:
    """The utility's parabolic polish against scipy's bounded Brent search.

    Both search the two grid cells around the scan's minimum and keep a
    value only where it is <= the grid minimum.  Near a smooth minimum the
    step is flat to rounding over the last 1e-9 in z, so the two polishes
    can stop at different floats of the same minimum: the values agree to
    1e-13 relative, not to the bit, and the locations to 1e-8.
    """

    @pytest.mark.parametrize("frac", [0.5, 0.8, 0.95, 0.99])
    def test_utility_matches_the_scipy_polish(self, fixtures, frac):
        # 20 fixtures x this eps fraction x 2 etas x 2 anchors: 80 calls, 320 in all
        for fx in fixtures:
            e = fx.ensemble
            for eta in (1e-3, 1e-5):
                ctx = DEContext.create(e.rho, frac * fx.params["epsilon"], eta)
                for zt in (0.5 * ctx.zeta, 2.0 * ctx.zeta):
                    value, argmin_x, _, _ = _scipy_polish(
                        e.lam, ctx, *_utility_grid(e.lam, ctx, zt))
                    got = utility(e.lam, ctx, zeta_tilde=zt)
                    assert abs(got.value - value) <= 1e-13 * abs(value), fx.name
                    assert abs(got.argmin_x - argmin_x) <= 1e-8, fx.name

    @staticmethod
    def _polish_at_an_end(fixtures, monkeypatch, name, frac, end):
        """The polish where the grid minimum is an end node.

        The bracket is then the one cell [z_1, z_0] or [z_last, z_{last-1}],
        with the end node itself a bound, and no z the polish evaluates may
        leave it.  Returns (polished z, utility, grid minimum, its x).
        """
        fx = fixtures.get(name)
        ctx = DEContext.create(fx.ensemble.rho, frac * fx.params["epsilon"], 1e-3)
        zt = 0.5 * ctx.zeta if end == "first" else 0.9 * ctx.xi
        zs, xs, vals = _utility_grid(fx.ensemble.lam, ctx, zt)
        k = int(np.argmin(vals))
        assert k == (0 if end == "first" else zs.size - 1)
        value, _, lo, hi = _scipy_polish(fx.ensemble.lam, ctx, zs, xs, vals)

        polished = []
        real = _kernels.transfer_step

        def spy(lam_c, rho_c, eps, z):
            if np.size(z) != zs.size:
                polished.extend(np.asarray(z).tolist())
            return real(lam_c, rho_c, eps, z)

        monkeypatch.setattr(_kernels, "transfer_step", spy)
        got = utility(fx.ensemble.lam, ctx, zeta_tilde=zt)
        assert all(lo <= z <= hi for z in polished)
        x_cell = sorted((xs[k], xs[1 if k == 0 else k - 1]))
        assert x_cell[0] <= got.argmin_x <= x_cell[1]
        assert abs(got.value - value) <= 1e-13 * abs(value)
        return polished, got, float(vals[k]), float(xs[k])

    @pytest.mark.parametrize("name", ["x7_poc", "mix_eta5", "mix_dv12"])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_bracket_at_an_end_node(self, fixtures, monkeypatch, name, end):
        # at 0.8 eps the grid minimum is the first node for the anchor
        # 0.5*zeta and the last (z = 1 - eps) for 0.9*xi.  At the first the
        # step is concave in z, so the curvature stops the polish and the
        # grid node stands; at the last both vertices clip to the end's
        # bound, so the second round would repeat the first triple and
        # evaluates nothing
        polished, got, grid_value, grid_x = self._polish_at_an_end(
            fixtures, monkeypatch, name, 0.8, end)
        if end == "first":
            assert polished == []
            assert (got.value, got.argmin_x) == (grid_value, grid_x)
        else:
            assert len(polished) == 3

    @pytest.mark.parametrize("name", ["x7_ratedv_e048", "x7_ratedv_e052", "mix_eta2"])
    def test_polish_at_the_first_node_stays_in_its_cell(self, fixtures, monkeypatch, name):
        # at 0.95 eps these steps are convex at the anchor 0.5*zeta, so the
        # polish runs against the first node's bound; its second vertex
        # clips to that bound again, whose triple is not evaluated twice
        polished, _, _, _ = self._polish_at_an_end(fixtures, monkeypatch, name, 0.95, "first")
        assert len(polished) == 3


class TestCodeEstimates:
    # (fixture, eps, eta); None takes the fixture's own (eps, eta)
    CASES = [
        ("x7_coc_r045", None, None),
        ("x7_coc_r040", None, None),
        ("mix_acc_r048", 0.48, 1e-4),
        ("mix_cmp_utility_098", None, None),
        ("mix_dv12", None, None),
        ("mix_eta5", None, None),
        ("x7_ratedv_e048", None, None),
        # 0.99 x the published 0.52, where the x-domain midpoint rule is
        # off by 0.95%
        ("x7_ratedv_e052", 0.5148, 1e-5),
    ]

    @staticmethod
    def _context(fx, eps, eta):
        if eps is None:
            return fixture_context(fx)
        return DEContext.create(fx.ensemble.rho, eps, eta)

    @pytest.mark.parametrize("name, eps, eta", CASES)
    def test_matches_quadrature_oracle(self, fixtures, name, eps, eta):
        fx = fixtures.get(name)
        ctx = self._context(fx, eps, eta)
        got = code_estimates(fx.ensemble, ctx)
        want_n = code_estimates_oracle(
            fx.ensemble.lam.coeffs, fx.ensemble.rho.coeffs, ctx.epsilon, ctx.eta)
        assert abs(got.approx_N - want_n) <= 1e-6 * want_n

    def test_lower_bound_floors_approx_n(self, fixtures):
        # every fixture that decodes at its own (eps, eta): 17 of the 20
        checked = 0
        for fx in fixtures:
            ctx = fixture_context(fx)
            if de_trace(fx.ensemble, ctx).iterations is None:
                continue
            got = code_estimates(fx.ensemble, ctx)
            assert 0.0 < got.lower_bound <= got.approx_N, fx.name
            checked += 1
        assert checked == 17

    def test_lower_bound_is_reached_by_a_constant_step(self, fixtures):
        # a constant step g/P makes Cauchy-Schwarz an equality: lam = x on
        # rho = x, where g(P) = (1 - eps)*P
        e = Ensemble(lam=DegreeDistribution({2: 1.0}), rho=DegreeDistribution({2: 1.0}))
        ctx = DEContext.create(e.rho, 0.5, 1e-4)
        got = code_estimates(e, ctx)
        assert got.lower_bound == pytest.approx(got.approx_N, rel=1e-12)

    def test_agrees_with_the_x_domain_reference(self, fixtures):
        # a smooth case, where the x-domain midpoint rule is within 5e-7
        # of the quadrature oracle too
        fx = fixtures.get("mix_acc_r048")
        ctx = DEContext.create(fx.ensemble.rho, 0.48, 1e-3)
        got = code_estimates(fx.ensemble, ctx)
        pair = code_curves(fx.ensemble, ctx)
        assert got.approx_N == pytest.approx(approx_iterations(pair), rel=1e-5)

    def test_touching_curves_raise_in_curve_units(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.52, 1e-5)
        with pytest.raises(DegenerateGap) as exc:
            code_estimates(fx.ensemble, ctx)
        x = exc.value.x
        assert ctx.zeta <= x <= ctx.xi
        assert exc.value.gap <= 0.0
        assert exc.value.gap == pytest.approx(
            psi(ctx, x) - fx.ensemble.lam.eval(x), abs=1e-9)


class TestCodeCurves:
    def test_pair_spans_operating_interval(self, fixtures):
        fx = fixtures.get("mix_acc_r048")
        ctx = DEContext.create(fx.ensemble.rho, 0.48, 1e-4)
        pair = code_curves(fx.ensemble, ctx)
        assert pair.a == pytest.approx(ctx.zeta, abs=1e-15)
        assert pair.b == pytest.approx(ctx.xi, abs=1e-15)

    def test_analytic_derivatives_match_finite_differences(self, fixtures):
        fx = fixtures.get("mix_acc_r048")
        ctx = DEContext.create(fx.ensemble.rho, 0.48, 1e-4)
        pair = code_curves(fx.ensemble, ctx)
        h = 1e-7
        for x in np.linspace(pair.a + 0.05, pair.b - 0.05, 7):
            # the pair's derivatives against a central difference taken here
            num2 = (pair.f2(x + h) - pair.f2(x - h)) / (2 * h)
            assert float(pair.f2_deriv(x)) == pytest.approx(float(num2), rel=1e-5)
            num1 = (pair.f1(x + h) - pair.f1(x - h)) / (2 * h)
            assert float(pair.f1_deriv(x)) == pytest.approx(float(num1), rel=1e-5)

    def test_validate_flags_infeasible_pair(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.5, 1e-5)
        pair = code_curves(fx.ensemble, ctx)
        with pytest.raises(DegenerateGap):
            pair.validate()


class TestCurvePairFallbacks:
    def test_validate_rejects_non_increasing_f2(self):
        # gap stays positive so the monotonicity check is what fires
        pair = CurvePair(f1=lambda x: np.asarray(x, dtype=float) - 2.0,
                         f2=lambda x: 2.0 - np.asarray(x, dtype=float), a=0.3, b=1.0,
                         f1_deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         f2_deriv=lambda x: -np.ones_like(np.asarray(x, dtype=float)))
        with pytest.raises(ValueError):
            pair.validate()
