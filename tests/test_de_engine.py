"""Erasure recursion, transfer curve and the decoding condition."""

import numpy as np
import pytest

from helpers import (
    de_recursion_oracle,
    fixture_context,
    polyval_recursion_reference,
    psi_deriv_monomial_closed_form,
    psi_monomial_closed_form,
    random_simplex_lambda,
    recursion_margin,
    staircase_oracle,
)
from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    DomainError,
    Ensemble,
    MaxIterations,
    ReachedTarget,
    Stalled,
    de_trace,
    psi,
    psi_deriv,
)
from ldpc_forge import _kernels, compile_constraint
from ldpc_forge.de_engine import INVERSION_TOL, STALL_TOL, z_of_x


@pytest.fixture(scope="module")
def ctx_x7():
    return DEContext.create(DegreeDistribution({8: 1.0}), 0.5, 1e-5)


@pytest.fixture(scope="module")
def reg36():
    return Ensemble(lam=DegreeDistribution({3: 1.0}), rho=DegreeDistribution({6: 1.0}))


class TestContext:
    def test_endpoints_follow_from_rho(self, ctx_x7):
        rho = ctx_x7.rho
        assert ctx_x7.xi == pytest.approx(1.0 - rho.eval(1.0 - 0.5), abs=1e-15)
        assert ctx_x7.zeta == pytest.approx(1.0 - rho.eval(1.0 - 1e-5), abs=1e-15)
        assert 0.0 < ctx_x7.zeta < ctx_x7.xi < 1.0

    @pytest.mark.parametrize("eps,eta", [(0.0, 1e-5), (1.2, 1e-5), (0.5, 0.5), (0.5, 0.0)])
    def test_bad_parameters_rejected(self, eps, eta):
        with pytest.raises(DomainError):
            DEContext.create(DegreeDistribution({8: 1.0}), eps, eta)


class TestTransferCurve:
    def test_monomial_closed_form_value(self, ctx_x7):
        # rho = x^7 inverts in closed form: psi(x) = 2 * (1 - (1-x)^(1/7))
        assert psi(ctx_x7, 0.3) == pytest.approx(2.0 * (1.0 - 0.7 ** (1.0 / 7.0)), abs=1e-10)

    def test_monomial_closed_form_grid(self, ctx_x7):
        xs = np.linspace(0.0, ctx_x7.xi, 101)
        want = psi_monomial_closed_form(8, 0.5, xs)
        got = np.array([psi(ctx_x7, float(x)) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_fixed_points_zero_and_xi(self, ctx_x7):
        assert psi(ctx_x7, 0.0) == 0.0
        assert psi(ctx_x7, ctx_x7.xi) == pytest.approx(1.0, abs=1e-10)

    def test_outside_domain_rejected(self, ctx_x7):
        with pytest.raises(DomainError):
            psi(ctx_x7, -1e-9)
        with pytest.raises(DomainError):
            psi(ctx_x7, ctx_x7.xi + 1e-6)

    def test_inverse_round_trip(self, ctx_x7):
        # psi's inverse for rho = x^7 at eps 0.5 is x = 1 - (1 - 0.5*y)^7
        for y in np.linspace(0.0, 1.0, 41):
            x = 1.0 - (1.0 - 0.5 * float(y)) ** 7
            assert psi(ctx_x7, x) == pytest.approx(float(y), abs=1e-10)

    def test_deriv_monomial_closed_form(self, ctx_x7):
        for x in (0.05, 0.3, 0.6):
            want = psi_deriv_monomial_closed_form(8, 0.5, x)
            assert psi_deriv(ctx_x7, x) == pytest.approx(float(want), rel=1e-8)

    def test_deriv_at_origin_is_stability_slope(self, ctx_x7):
        # slope at 0 equals 1 / (eps * rho'(1))
        assert psi_deriv(ctx_x7, 0.0) == pytest.approx(1.0 / (0.5 * 7.0), rel=1e-8)

    def test_mixed_check_curve_against_finite_difference(self, rho_mix):
        ctx = DEContext.create(rho_mix, 0.48, 1e-4)
        h = 1e-7
        for x in (0.1, 0.4, 0.8 * ctx.xi):
            num = (psi(ctx, x + h) - psi(ctx, x - h)) / (2 * h)
            assert psi_deriv(ctx, x) == pytest.approx(num, rel=1e-5)


class TestInversion:
    def test_origin_maps_to_one_exactly(self, ctx_x7):
        assert z_of_x(ctx_x7.rho, 0.0) == 1.0
        assert z_of_x(ctx_x7.rho, np.array([0.0, 0.5]))[0] == 1.0
        # so psi' at the origin is the stability slope 1/(eps*rho'(1)) to the bit
        assert psi_deriv(ctx_x7, 0.0) == 1.0 / (0.5 * 7.0)

    def test_residual_within_tolerance(self, rho_mix):
        xs = np.linspace(0.0, 1.0, 1001)
        z = z_of_x(rho_mix, xs)
        assert np.all((0.0 <= z) & (z <= 1.0))
        assert np.max(np.abs(rho_mix.eval(z) - (1.0 - xs))) <= INVERSION_TOL

    def test_array_equals_scalars_on_the_fig2_grid(self, ctx_x7):
        # fig2 plots psi on 257 points from 0 to xi with one vectorised call
        xs = np.linspace(0.0, ctx_x7.xi, 257)
        per_point = np.array([psi(ctx_x7, float(x)) for x in xs])
        assert psi(ctx_x7, xs).tobytes() == per_point.tobytes()
        z_per_point = np.array([z_of_x(ctx_x7.rho, float(x)) for x in xs])
        assert z_of_x(ctx_x7.rho, xs).tobytes() == z_per_point.tobytes()

    def test_one_target_equals_the_batched_call_to_the_bit(self, rho_x7, rho_mix, fixtures):
        # a single target is inverted on floats, an array by numpy; same z
        rng = np.random.default_rng(20261018)
        targets = np.concatenate([[0.0, 1.0, 1.0 - 1e-16], rng.uniform(0.0, 1.0, 500)])
        rhos = [rho_x7, rho_mix] + [f.ensemble.rho for f in fixtures]
        for rho in rhos:
            batched = _kernels.bisect_increasing(rho.dense, targets)
            one = np.concatenate([
                _kernels.bisect_increasing(rho.dense, np.array([t]))
                for t in targets])
            assert one.tobytes() == batched.tobytes()

    def test_within_two_ulps_of_a_50_digit_root(self, fixtures):
        # each fixture's rho at 500 targets spanning every x in [0, xi] that
        # any fixture inverts: [rho(1 - eps), 1] at the largest fixture eps
        mpmath = pytest.importorskip("mpmath")
        eps = max(f.params["epsilon"] for f in fixtures)
        rhos = {f.ensemble.rho.dense.tobytes(): f.ensemble.rho for f in fixtures}
        assert len(rhos) == 2  # x^7 and the mixed rho
        for rho in rhos.values():
            targets = np.linspace(rho.eval(1.0 - eps), 1.0, 500)
            zs = _kernels.bisect_increasing(rho.dense, targets)
            coef = [mpmath.mpf(float(c)) for c in rho.dense[::-1]]
            with mpmath.workdps(50):
                for t, z in zip(targets.tolist(), zs.tolist()):
                    root = mpmath.findroot(lambda s: mpmath.polyval(coef, s) - t, z)
                    assert abs(z - root) <= 2 * np.spacing(float(root)), (t, z)

    def test_targets_at_the_step_cap(self, rho_x7, rho_mix):
        # t = 0 and 1e-300 take all `BISECT_MAX_ITER` steps (the root 0 is
        # approached by a factor (d - 1)/d a step), 1 - 1e-16 stops at once;
        # each leaves a residual within INVERSION_TOL on both paths
        targets = np.array([0.0, 1e-300, 1.0 - 1e-16])
        for rho in (rho_x7, rho_mix):
            batched = _kernels.bisect_increasing(rho.dense, targets)
            one = [_kernels.bisect_increasing(rho.dense, (t,))[0] for t in targets]
            assert batched.tolist() == one
            assert np.max(np.abs(rho.eval(batched) - targets)) <= INVERSION_TOL
            assert z_of_x(rho, 0.0) == 1.0 and z_of_x(rho, np.array([0.0]))[0] == 1.0

    @pytest.mark.parametrize("zeta_tilde", [0.0, 1e-4, 0.3])
    def test_compiled_constraint_anchors_at_the_same_z(self, ctx_x7, zeta_tilde):
        lam = DegreeDistribution({2: 0.5, 3: 0.5})
        cp = compile_constraint(lam, 0.0, ctx_x7.rho, 0.5, zeta_tilde, ctx_x7.xi)
        assert cp.b == z_of_x(ctx_x7.rho, zeta_tilde)


class TestRecursion:
    def test_regular_code_below_threshold_converges(self, reg36):
        ctx = DEContext.create(reg36.rho, 0.4, 1e-3)
        trace = de_trace(reg36, ctx)
        assert isinstance(trace.status, ReachedTarget)
        assert trace.iterations == trace.status.iterations
        probs = np.asarray(trace.probs)
        assert probs[0] == 0.4
        assert np.all(np.diff(probs) < 0)
        assert probs[-1] < 1e-3 <= probs[-2]

    def test_regular_code_above_threshold_stalls(self, reg36):
        ctx = DEContext.create(reg36.rho, 0.45, 1e-3)
        trace = de_trace(reg36, ctx)
        assert isinstance(trace.status, Stalled)
        assert trace.iterations is None
        assert trace.status.P_value > 1e-3

    def test_iteration_cap_reported(self, reg36):
        ctx = DEContext.create(reg36.rho, 0.4, 1e-12)
        trace = de_trace(reg36, ctx, l_max=5)
        assert isinstance(trace.status, MaxIterations)
        assert trace.status.l_max == 5
        assert len(trace.probs) == 6

    def test_nonpositive_cap_rejected(self, reg36):
        ctx = DEContext.create(reg36.rho, 0.4, 1e-3)
        with pytest.raises(ValueError):
            de_trace(reg36, ctx, l_max=0)

    def test_matches_pure_python_recursion_on_random_ensembles(self, rng, rho_mix):
        eps, eta = 0.45, 1e-4
        ctx = DEContext.create(rho_mix, eps, eta)
        checked = 0
        while checked < 20:
            lam = random_simplex_lambda(rng)
            e = Ensemble(lam=lam, rho=rho_mix)
            want_n, want_probs = de_recursion_oracle(lam.coeffs, rho_mix.coeffs, eps, eta)
            trace = de_trace(e, ctx)
            assert trace.iterations == want_n
            m = min(len(trace.probs), len(want_probs))
            assert np.allclose(trace.probs[:m], want_probs[:m], rtol=1e-9, atol=1e-12)
            checked += 1

    @staticmethod
    def _assert_bit_equal_to_polyval(e, ctx, l_max=1_000_000):
        got = _kernels.de_run(e.lam.dense, ctx.rho.dense, ctx.epsilon, ctx.eta,
                              l_max, STALL_TOL)
        want = polyval_recursion_reference(e.lam.dense, ctx.rho.dense, ctx.epsilon,
                                           ctx.eta, l_max, STALL_TOL)
        assert got[1] == want[1]
        assert got[0].dtype == np.float64
        assert got[0].tobytes() == want[0].tobytes()
        return got[1]

    def test_bit_equal_to_polyval_on_every_fixture(self, fixtures):
        for f in fixtures:
            self._assert_bit_equal_to_polyval(f.ensemble, fixture_context(f))

    def test_bit_equal_to_polyval_on_a_stall(self, reg36):
        # 1.01 x the (3,6) threshold 0.4294
        ctx = DEContext.create(reg36.rho, 1.01 * 0.4294, 1e-3)
        assert self._assert_bit_equal_to_polyval(reg36, ctx) == _kernels.STATUS_STALLED

    def test_bit_equal_to_polyval_at_the_cap(self, fixtures):
        f = fixtures.get("mix_dv16")
        status = self._assert_bit_equal_to_polyval(f.ensemble, fixture_context(f), l_max=5)
        assert status == _kernels.STATUS_MAX_ITER

    def test_matches_ordinate_recursion_count(self, rng, rho_mix, fixtures):
        # the normalized staircase recursion counts the same steps
        eps, eta = 0.47, 1e-3
        ctx = DEContext.create(rho_mix, eps, eta)
        for _ in range(10):
            lam = random_simplex_lambda(rng)
            e = Ensemble(lam=lam, rho=rho_mix)
            trace = de_trace(e, ctx)
            assert trace.iterations == staircase_oracle(lam.coeffs, rho_mix.coeffs, eps, eta)
        # and a published code: 50 steps at eps 0.48, eta 1e-4
        e = fixtures.get("mix_acc_r048").ensemble
        want = staircase_oracle(e.lam.coeffs, e.rho.coeffs, 0.48, 1e-4)
        assert want == 50
        assert de_trace(e, DEContext.create(e.rho, 0.48, 1e-4)).iterations == want


class TestSuccessCheck:
    """The strict decoding condition g(P) > 0 on (eta, eps], scanned on a
    uniform grid, against the recursion it predicts."""

    def test_published_rate_optimal_code_is_tangent_at_design_point(self, fixtures):
        # the stored row is rounded to four decimals, so at the exact design
        # point the strict margin lands a hair below zero; a fraction of a
        # percent below in epsilon it decodes cleanly
        e = fixtures.get("x7_poc").ensemble
        at_design, _ = recursion_margin(e, DEContext.create(e.rho, 0.5, 1e-5))
        assert abs(at_design) < 1e-5
        ctx = DEContext.create(e.rho, 0.4995, 1e-5)
        below, _ = recursion_margin(e, ctx)
        assert below > 0
        assert isinstance(de_trace(e, ctx).status, ReachedTarget)

    def test_same_code_fails_well_above_design_point(self, fixtures):
        e = fixtures.get("x7_poc").ensemble
        ctx = DEContext.create(e.rho, 0.6, 1e-5)
        worst, argmin_P = recursion_margin(e, ctx)
        assert worst < 0
        # a recursion probability on the scanned (eta, eps], not an abscissa
        assert ctx.eta < argmin_P <= ctx.epsilon
        assert isinstance(de_trace(e, ctx).status, Stalled)

    def test_stability_violation_detected(self):
        e = Ensemble(lam=DegreeDistribution({2: 1.0}), rho=DegreeDistribution({3: 1.0}))
        ctx = DEContext.create(e.rho, 0.9, 1e-6)
        assert recursion_margin(e, ctx)[0] <= 0
        assert not isinstance(de_trace(e, ctx, l_max=20_000).status, ReachedTarget)

    def test_failed_check_implies_no_convergence(self, rng, rho_mix):
        eps, eta = 0.49, 1e-4
        ctx = DEContext.create(rho_mix, eps, eta)
        seen_fail = 0
        for _ in range(40):
            lam = random_simplex_lambda(rng)
            e = Ensemble(lam=lam, rho=rho_mix)
            if recursion_margin(e, ctx)[0] > 0:
                continue
            seen_fail += 1
            assert not isinstance(de_trace(e, ctx, l_max=20_000).status, ReachedTarget)
        assert seen_fail >= 5
