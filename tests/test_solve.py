"""Designer-facing tests: LP wrapper, rate/utility/min-iteration solvers."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from helpers import lp_vertex_enumeration_oracle, random_simplex_lambda
from ldpc_forge import _kernels
from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    DesignSpec,
    DomainError,
    Ensemble,
    check_successful,
    de_trace,
    design_min_iterations,
    design_rate,
    design_utility,
    lp_solve,
    rate,
    refine_exchange,
    utility,
)
from ldpc_forge.solve import SCAN_N

X7_EPS = 0.5
MIX_EPS = 1.0 - 0.5 / 0.90  # rate-to-capacity ratio 0.90 at R_d = 0.5


@pytest.fixture(scope="module")
def rate_512(rho_x7):
    return design_rate(rho_x7, X7_EPS, 16, grid_n=512)


@pytest.fixture(scope="module")
def utility_mix(rho_mix):
    spec = DesignSpec(rho=rho_mix, epsilon=MIX_EPS, eta=1e-3, d_v=16,
                      R_d=0.5, grid_n=1024)
    return spec, design_utility(spec)


@pytest.fixture(scope="module")
def miniter_045(rho_x7):
    spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                      R_d=0.45, grid_n=1024)
    return spec, design_min_iterations(spec)


class TestLPSolve:
    def test_bounded_maximum(self):
        res = lp_solve(np.array([-1.0]), A_ub=[[1.0]], b_ub=[3.0])
        assert res.status == "Optimal"
        assert res.x == pytest.approx([3.0], abs=1e-12)
        assert res.objective == pytest.approx(-3.0, abs=1e-12)
        assert res.dual_ub == pytest.approx([1.0], abs=1e-10)
        assert res.kkt_residual <= 1e-8

    def test_duplicate_rows_stay_consistent(self):
        # degenerate vertex: both copies pin x = 3, duals may split
        res = lp_solve(np.array([-1.0]), A_ub=[[1.0], [1.0]], b_ub=[3.0, 3.0])
        assert res.status == "Optimal"
        assert res.x == pytest.approx([3.0], abs=1e-10)
        assert float(np.sum(res.dual_ub)) == pytest.approx(1.0, abs=1e-8)
        assert res.kkt_residual <= 1e-8

    def test_equality_constraint(self):
        res = lp_solve(np.array([1.0, 2.0]), A_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == "Optimal"
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-10)
        assert res.objective == pytest.approx(1.0, abs=1e-10)
        assert res.dual_eq == pytest.approx([-1.0], abs=1e-8)
        assert res.kkt_residual <= 1e-8

    def test_infeasible_status(self):
        res = lp_solve(np.array([1.0]), A_ub=[[1.0]], b_ub=[-1.0])
        assert res.status == "Infeasible"
        assert res.x.size == 0

    def test_unbounded_status(self):
        res = lp_solve(np.array([-1.0]), A_ub=[[-1.0]], b_ub=[0.0])
        assert res.status == "Unbounded"

    def test_matches_vertex_enumeration(self, rng):
        # bounded random polytopes containing the origin
        for _ in range(25):
            n = 3
            c = rng.normal(size=n)
            A_rand = rng.normal(size=(3, n))
            b_rand = np.abs(rng.normal(size=3)) + 0.5
            ub = rng.uniform(1.0, 3.0, size=n)
            A = np.vstack([A_rand, np.eye(n)])
            b = np.concatenate([b_rand, ub])
            res = lp_solve(c, A_ub=A, b_ub=b)
            best = lp_vertex_enumeration_oracle(c, A, b)
            assert res.status == "Optimal"
            assert best is not None
            assert res.objective == pytest.approx(best[0], abs=1e-7)
            assert np.all(A @ res.x <= b + 1e-8)
            assert np.all(res.x >= -1e-10)

    def test_vertex_enumeration_with_equality(self, rng):
        eq = np.ones((1, 3))
        for _ in range(15):
            c = rng.normal(size=3)
            A = rng.normal(size=(3, 3))
            b = np.abs(rng.normal(size=3)) + 0.5
            res = lp_solve(c, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0])
            best = lp_vertex_enumeration_oracle(c, A, b, eq, [1.0])
            assert (res.status == "Optimal") == (best is not None)
            if best is not None:
                assert res.objective == pytest.approx(best[0], abs=1e-7)
                assert float(np.sum(res.x)) == pytest.approx(1.0, abs=1e-9)


class TestDesignSpec:
    def make(self, rho_x7, **kw):
        base = dict(rho=rho_x7, epsilon=0.5, eta=1e-5, d_v=16, R_d=0.45)
        base.update(kw)
        return DesignSpec(**base)

    def test_valid_spec_passes(self, rho_x7):
        self.make(rho_x7).validate()

    def test_eta_must_sit_below_epsilon(self, rho_x7):
        with pytest.raises(DomainError):
            self.make(rho_x7, eta=0.5).validate()
        with pytest.raises(DomainError):
            self.make(rho_x7, eta=0.0).validate()

    def test_epsilon_below_one(self, rho_x7):
        with pytest.raises(DomainError):
            self.make(rho_x7, epsilon=1.0).validate()

    def test_d_v_floor(self, rho_x7):
        with pytest.raises(ValueError, match="d_v"):
            self.make(rho_x7, d_v=1).validate()

    def test_rate_target_open_interval(self, rho_x7):
        with pytest.raises(ValueError, match="R_d"):
            self.make(rho_x7, R_d=0.0).validate()
        with pytest.raises(ValueError, match="R_d"):
            self.make(rho_x7, R_d=1.0).validate()

    def test_series_order_exceeds_d_v(self, rho_x7):
        with pytest.raises(ValueError, match="taylor_order"):
            self.make(rho_x7, taylor_order=16).validate()

    def test_zeta_tilde_domain(self, rho_x7):
        # xi = 1 - (1 - 0.5)^7 = 0.9921875 for rho = x^7
        with pytest.raises(DomainError):
            self.make(rho_x7, zeta_tilde=0.9999).validate()
        with pytest.raises(DomainError):
            self.make(rho_x7, zeta_tilde=-0.1).validate()
        self.make(rho_x7, zeta_tilde=0.99).validate()

    def test_resolved_zeta_tilde(self, rho_x7):
        spec = self.make(rho_x7)
        ctx = spec.context()
        assert spec.resolved_zeta_tilde(ctx) == pytest.approx(0.5 * ctx.zeta, rel=1e-12)
        explicit = self.make(rho_x7, zeta_tilde=0.01)
        assert explicit.resolved_zeta_tilde(ctx) == 0.01


class TestDesignRate:
    def test_single_degree_feasible(self, rho_x7):
        # lam = x is stable at eps = 0.1 (eps*rho'(1) = 0.7 < 1)
        rep = design_rate(rho_x7, 0.1, 2)
        assert rep.status == "Optimal"
        assert rep.lam.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert rep.objective == pytest.approx(0.75, abs=1e-12)
        assert rep.max_violation <= rep.params["margin"]

    def test_single_degree_infeasible(self, rho_x7):
        rep = design_rate(rho_x7, 0.5, 2)
        assert rep.status == "Infeasible"
        assert "Infeasible" in rep.detail
        assert rep.lam is None

    def test_rate_ceiling_published_value(self, rho_x7, rate_512):
        rep = rate_512
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(0.4714, abs=1e-3)
        assert rep.lam.coeff(2) == pytest.approx(0.2673, abs=2e-3)
        assert rep.max_violation <= rep.params["margin"]
        assert rate(Ensemble(rep.lam, rho_x7)) == pytest.approx(rep.objective, rel=1e-12)
        ctx = DEContext.create(rho_x7, X7_EPS, 1e-5)
        assert check_successful(Ensemble(rep.lam, rho_x7), ctx, 100_000).ok

    def test_deterministic(self, rho_x7):
        a = design_rate(rho_x7, X7_EPS, 16, grid_n=256)
        b = design_rate(rho_x7, X7_EPS, 16, grid_n=256)
        assert np.array_equal(a.lam.dense, b.lam.dense)
        assert a.objective == b.objective

    def test_coarse_grid_refines_downward(self, rho_x7):
        cand = design_rate(rho_x7, X7_EPS, 16, grid_n=64, refine_rounds=0)
        assert cand.status == "IterLimit"
        assert cand.max_violation > cand.params["margin"]
        ref = refine_exchange(cand)
        assert ref.status == "Optimal"
        assert ref.max_violation <= ref.params["margin"]
        assert ref.rounds >= 1
        assert len(ref.extra_points) > 0
        # the lax grid overestimates the ceiling; refinement walks it down
        assert ref.objective < cand.objective
        assert ref.objective == pytest.approx(0.471454, abs=5e-4)

    def test_clean_candidate_returned_unchanged(self, rate_512):
        assert refine_exchange(rate_512) is rate_512


class TestDesignUtility:
    def test_single_degree_step_floor(self, rho_x7):
        spec = DesignSpec(rho=rho_x7, epsilon=0.1, eta=1e-5, d_v=2,
                          R_d=0.7, grid_n=512)
        rep = design_utility(spec)
        assert rep.status == "Optimal"
        assert rep.lam.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert rep.certificate is not None and rep.certificate.passed
        # the only feasible lam leaves t = worst step of lam = x itself
        ctx = spec.context()
        direct = utility(rep.lam, ctx, zeta_tilde=rep.params["zeta_tilde"])
        assert rep.t == pytest.approx(direct.value, abs=5e-7)
        assert 0.0 < rep.t < direct.value  # backoff keeps it strictly inside

    def test_rate_floor_above_ceiling(self, rho_x7):
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16, R_d=0.48)
        rep = design_utility(spec)
        assert rep.status == "Infeasible"
        assert "exceeds R_max=0.4714" in rep.detail

    def test_published_mix_design(self, rho_mix, utility_mix):
        spec, rep = utility_mix
        assert rep.status == "Optimal"
        assert rep.t == pytest.approx(0.0146, abs=1e-3)
        assert rep.certificate is not None and rep.certificate.passed
        assert rep.max_violation <= spec.margin
        assert 0.0 <= rep.optimality_gap < 1e-5
        # the rate floor is active: moving mass to lower degrees would
        # raise the step floor but break R >= 0.5
        assert rate(Ensemble(rep.lam, rho_mix)) == pytest.approx(0.5, abs=1e-6)
        ok = check_successful(Ensemble(rep.lam, rho_mix), spec.context(), 100_000)
        assert ok.ok

    def test_dominates_rate_design(self, rho_mix, utility_mix):
        spec, rep = utility_mix
        rmax = design_rate(rho_mix, MIX_EPS, 16, grid_n=1024)
        zt = rep.params["zeta_tilde"]
        u_rate = utility(rmax.lam, spec.context(), zeta_tilde=zt)
        assert rep.t >= u_rate.value
        assert rep.t > u_rate.value + 0.01  # rate design hugs psi, tiny floor


class TestDesignMinIterations:
    def test_published_coefficient(self, miniter_045):
        spec, rep = miniter_045
        assert rep.status == "Optimal"
        assert rep.lam.coeff(2) == pytest.approx(0.2126, abs=0.02)
        # mass moves off degree 2 relative to the rate-optimal 0.2673
        assert rep.lam.coeff(2) < 0.25

    def test_rate_floor_active(self, rho_x7, miniter_045):
        _, rep = miniter_045
        assert rate(Ensemble(rep.lam, rho_x7)) == pytest.approx(0.45, abs=1e-6)

    def test_convergence_quality(self, miniter_045):
        spec, rep = miniter_045
        assert rep.max_violation <= spec.margin
        assert rep.optimality_gap <= spec.tol
        assert np.isfinite(rep.objective) and rep.objective > 0.0

    def test_rate_ceiling_leaves_no_interior(self, rho_x7, miniter_045):
        spec, rep045 = miniter_045
        ceiling = design_rate(rho_x7, X7_EPS, 16, grid_n=1024)
        spec_top = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                              R_d=ceiling.objective, grid_n=1024)
        rep = design_min_iterations(spec_top)
        assert rep.status == "Optimal"
        assert "no interior" in rep.detail
        assert np.array_equal(rep.lam.dense, ceiling.lam.dense)
        # pinned to the ceiling the curve gap collapses, so the count blows up
        assert rep.objective > 10 * rep045.objective

    def test_infeasible_above_ceiling(self, rho_x7):
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                          R_d=0.49, grid_n=512)
        rep = design_min_iterations(spec)
        assert rep.status == "Infeasible"
        assert "exceeds R_max" in rep.detail

    def test_iteration_rate_tradeoff(self, rho_x7):
        counts = []
        for R_d in (0.40, 0.43, 0.46, 0.47):
            spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-4, d_v=16,
                              R_d=R_d, grid_n=512)
            rep = design_min_iterations(spec)
            assert rep.status == "Optimal"
            trace = de_trace(Ensemble(rep.lam, rho_x7), spec.context(), 5000)
            counts.append(trace.iterations)
        assert all(n is not None for n in counts)
        assert counts == sorted(counts) and len(set(counts)) == len(counts)
        assert 30 <= counts[0] <= 45
        assert 300 <= counts[-1] <= 500


class TestScanGrid:
    @pytest.mark.parametrize("rho_name", ["x7", "mix_dv16"])
    def test_scan_is_grid_then_polyval(self, rho_name, rho_x7, fixtures, rng):
        rho = rho_x7 if rho_name == "x7" else fixtures.get("mix_dv16").ensemble.rho
        ctx = DEContext.create(rho, 0.5, 1e-5)
        xs = np.linspace(ctx.zeta, ctx.xi, SCAN_N)
        lam = random_simplex_lambda(rng, d_v=16)
        t = float(rng.uniform(0.0, 0.05))
        psi_v, dpsi_v = _kernels.transfer_grid(rho.dense, ctx.epsilon, xs,
                                               ctx.inversion_tol)
        want = psi_v - npoly.polyval(xs, lam.dense) - t * dpsi_v
        got = _kernels.transfer_gap_scan(lam.dense, rho.dense, ctx.epsilon, t, xs,
                                         ctx.inversion_tol)
        assert np.array_equal(got, want)

    def test_utility_inverts_its_scan_grid_once(self, rho_mix, monkeypatch):
        calls = []
        real = _kernels.bisect_increasing

        def counting(coef, targets, tol, max_iter=100):
            targets = np.asarray(targets)
            calls.append((targets.size, float(targets[0])))
            return real(coef, targets, tol, max_iter)

        monkeypatch.setattr(_kernels, "bisect_increasing", counting)
        spec = DesignSpec(rho=rho_mix, epsilon=MIX_EPS, eta=1e-3, d_v=16,
                          R_d=0.5, grid_n=512)
        rep = design_utility(spec)
        assert rep.status == "Optimal"
        assert rep.rounds > 0
        zt = rep.params["zeta_tilde"]
        scans = [first for size, first in calls if size == SCAN_N]
        assert scans.count(1.0 - zt) == 1
        # the only other full scan is the rate-ceiling design's own grid
        assert len(scans) == 2
