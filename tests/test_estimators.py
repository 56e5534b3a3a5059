"""Step counting on curve pairs, the code estimates and the utility."""

import math

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
from ldpc_forge.estimators import UTILITY_GRID_N, UtilityResult, _bounded_brent


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
        res = utility(e.lam, ctx)
        want = utility_oracle(e.lam.coeffs, e.rho.coeffs, eps, 0.5 * ctx.zeta,
                              res.argmin_x)
        assert abs(res.value - want) <= 3e-8 * abs(want)

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


def _scipy_bounded(step, lo, hi, **options):
    from scipy.optimize import minimize_scalar

    return minimize_scalar(step, bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-10, **options})


def _utility_grid(lam, ctx, zeta_tilde):
    """`utility`'s z grid, its steps and the step function, rebuilt here."""
    zs = np.linspace(z_of_x(ctx.rho, zeta_tilde), 1.0 - ctx.epsilon, UTILITY_GRID_N)
    xs, vals = _kernels.transfer_step(lam.dense, ctx.rho.dense, ctx.epsilon, zs)
    step = _kernels.transfer_step_at(lam.dense, ctx.rho.dense, ctx.epsilon)
    return zs, xs, vals, step


def _same_bits(got: float, want) -> bool:
    return float(got).hex() == float(want).hex()


class TestBoundedBrent:
    """The in-package bounded Brent search against scipy's, to the bit."""

    @pytest.mark.parametrize("frac", [0.5, 0.8, 0.95, 0.99])
    def test_utility_matches_the_scipy_polish(self, fixtures, frac):
        # 20 fixtures x this eps fraction x 2 etas x 2 anchors: 80 calls, 320 in all
        for fx in fixtures:
            e = fx.ensemble
            for eta in (1e-3, 1e-5):
                ctx = DEContext.create(e.rho, frac * fx.params["epsilon"], eta)
                for zt in (0.5 * ctx.zeta, 2.0 * ctx.zeta):
                    zs, xs, vals, step = _utility_grid(e.lam, ctx, zt)
                    k = int(np.argmin(vals))
                    lo, hi = zs[min(k + 1, zs.size - 1)], zs[max(k - 1, 0)]
                    ref = _scipy_bounded(step, lo, hi)
                    x, fun = _bounded_brent(step, lo, hi)
                    assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun), fx.name
                    want = (UtilityResult(float(ref.fun), 1.0 - ctx.rho.eval(float(ref.x)))
                            if ref.fun <= vals[k] else
                            UtilityResult(float(vals[k]), float(xs[k])))
                    got = utility(e.lam, ctx, zeta_tilde=zt)
                    assert _same_bits(got.value, want.value), fx.name
                    assert _same_bits(got.argmin_x, want.argmin_x), fx.name

    @pytest.mark.parametrize("name", ["x7_poc", "mix_eta5", "mix_dv12"])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_bracket_at_an_end_node(self, fixtures, name, end):
        # a grid minimum at k = 0 or k = zs.size - 1 brackets [z_{k+1}, z_k]
        # or [z_k, z_{k-1}]: the end node is itself a bound
        fx = fixtures.get(name)
        ctx = fixture_context(fx)
        zs, _, _, step = _utility_grid(fx.ensemble.lam, ctx, 0.5 * ctx.zeta)
        k = 0 if end == "first" else zs.size - 1
        lo, hi = zs[min(k + 1, zs.size - 1)], zs[max(k - 1, 0)]
        ref = _scipy_bounded(step, lo, hi)
        x, fun = _bounded_brent(step, lo, hi)
        assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
        assert lo <= x <= hi

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0),  # parabolic steps land on it
        (math.cos, 3.0, 4.0),  # interior minimum at pi
        (lambda x: x ** 3, -1.0, 2.0),  # minimum at the lower bound
        (lambda x: -x, 0.0, 1.0),  # minimum at the upper bound
        (lambda x: 1.0, 0.0, 1.0),  # flat: every comparison ties
        (lambda x: abs(x - 0.123456789), 0.0, 1.0),  # kink: golden steps
    ])
    @pytest.mark.parametrize("maxfun", [500, 5])
    def test_matches_scipy_on_plain_functions(self, f, lo, hi, maxfun):
        ref = _scipy_bounded(f, lo, hi, maxiter=maxfun)
        x, fun = _bounded_brent(f, lo, hi, maxfun=maxfun)
        assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)

    def test_matches_scipy_on_quantized_functions(self):
        # steps of 2^-k make f(u) == f(x) ties common, so the branches that
        # compare equal values are taken; dyadic bounds, two tolerances, two caps
        rng = np.random.default_rng(7)
        for i in range(400):
            c, s = float(rng.uniform(-1.0, 2.0)), 2.0 ** int(rng.integers(0, 12))
            f = [lambda x: math.floor((x - c) ** 2 * s) / s,
                 lambda x: round(abs(x - c) * s) / s,
                 lambda x: (x - c) ** 2,
                 lambda x: -math.floor(math.cos(3.0 * x + c) * s) / s][i % 4]
            lo, hi = sorted(float(v) / 4.0 for v in rng.integers(-8, 8, size=2))
            hi = hi if hi > lo else lo + 1.0
            xatol, maxfun = (1e-3 if i % 3 == 0 else 1e-10), (500 if i % 2 == 0 else 7)
            ref = _scipy_bounded(f, lo, hi, xatol=xatol, maxiter=maxfun)
            x, fun = _bounded_brent(f, lo, hi, xatol=xatol, maxfun=maxfun)
            assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun), (i, c, s, lo, hi)


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
            num2 = (pair.f2(x + h) - pair.f2(x - h)) / (2 * h)
            assert float(pair.d_f2()(x)) == pytest.approx(float(num2), rel=1e-5)
            num1 = (pair.f1(x + h) - pair.f1(x - h)) / (2 * h)
            assert float(pair.d_f1()(x)) == pytest.approx(float(num1), rel=1e-5)

    def test_validate_flags_infeasible_pair(self, fixtures):
        fx = fixtures.get("x7_poc")
        ctx = DEContext.create(fx.ensemble.rho, 0.5, 1e-5)
        pair = code_curves(fx.ensemble, ctx)
        with pytest.raises(DegenerateGap):
            pair.validate()


class TestCurvePairFallbacks:
    def test_derivative_fallback_uses_finite_differences(self):
        pair = CurvePair(f1=lambda x: np.asarray(x) / 2.0,
                         f2=lambda x: np.asarray(x, dtype=float) ** 2, a=0.3, b=1.0)
        assert float(pair.d_f2()(0.5)) == pytest.approx(1.0, rel=1e-6)

    def test_validate_rejects_non_increasing_f2(self):
        # gap stays positive so the monotonicity check is what fires
        pair = CurvePair(f1=lambda x: np.asarray(x, dtype=float) - 2.0,
                         f2=lambda x: 2.0 - np.asarray(x, dtype=float), a=0.3, b=1.0)
        with pytest.raises(ValueError):
            pair.validate()
