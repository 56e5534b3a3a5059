"""Designer-facing tests: LP wrapper, rate/utility/min-iteration solvers."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from helpers import (DEGENERATE_LP_KINDS, RANDOM_LP_KINDS, ActiveSetTwin, SimplexTwin,
                     fail_own_certificate, full_lp_reference, lp_vertex_enumeration_oracle,
                     pinned_tie_break, random_lp, random_simplex_lambda, recursion_margin,
                     reference_tie_break, tuning_capped_and_uncapped)
from ldpc_forge import _kernels, cli, solve
from ldpc_forge import (
    DEContext,
    DegreeDistribution,
    DesignSpec,
    DomainError,
    Ensemble,
    NumericalFailure,
    de_trace,
    design_min_iterations,
    design_rate,
    design_utility,
    certify,
    code_estimates,
    compile_constraint,
    lp_solve,
    psi,
    psi_deriv,
    rate,
    utility,
)

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
        # the inequality row x1 + x2 <= 2 is required and never binds
        res = lp_solve(np.array([1.0, 2.0]), A_ub=[[1.0, 1.0]], b_ub=[2.0],
                       A_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == "Optimal"
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-10)
        assert res.objective == pytest.approx(1.0, abs=1e-10)
        assert res.dual_eq == pytest.approx([-1.0], abs=1e-8)
        assert res.dual_ub == pytest.approx([0.0], abs=1e-12)
        assert res.kkt_residual <= 1e-8

    def test_vertex_off_a_row_is_rejected(self, monkeypatch):
        # a vertex that misses the equality row by 4e-10 fails the primal gate
        real = solve._simplex

        def off_the_row(*args):
            status, w, x, y = real(*args)
            return status, w, x + 4e-10, y

        monkeypatch.setattr(solve, "_simplex", off_the_row)
        with pytest.raises(NumericalFailure, match="primal infeasibility 4.000e-10"):
            lp_solve(np.array([1.0, 2.0]), A_ub=[[1.0, 1.0]], b_ub=[2.0],
                     A_eq=[[1.0, 0.0]], b_eq=[1.0])

    def test_tiny_matrix_entries_bind(self):
        # x <= 1 written as 1e-10*x <= 1e-10: the vertex honours the row
        # (HiGHS drops entries below 1e-9 and returned x = 5)
        res = lp_solve(np.array([-1.0]), A_ub=[[1e-10], [1.0]], b_ub=[1e-10, 5.0])
        assert res.status == "Optimal"
        assert res.x == pytest.approx([1.0], abs=1e-12)

    def test_infeasible_status(self):
        res = lp_solve(np.array([1.0]), A_ub=[[1.0]], b_ub=[-1.0])
        assert res.status == "Infeasible"
        assert res.x.size == 0

    def test_unbounded_status(self):
        res = lp_solve(np.array([-1.0]), A_ub=[[-1.0]], b_ub=[0.0])
        assert res.status == "Unbounded"

    def test_infeasible_with_equality_rows(self):
        # x1 + x2 = 1 against x1 + x2 <= 0.5; and x1 - x2 = 0 with x1 + x2 = 1
        # against x1 >= 0.6: each needs a phase one to find out
        res = lp_solve(np.array([1.0, 1.0]), A_ub=[[1.0, 1.0]], b_ub=[0.5],
                       A_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == "Infeasible"
        res = lp_solve(np.array([0.0, 1.0]), A_ub=[[-1.0, 0.0]], b_ub=[-0.6],
                       A_eq=[[1.0, -1.0], [1.0, 1.0]], b_eq=[0.0, 1.0])
        assert res.status == "Infeasible"

    def test_unbounded_along_an_edge(self):
        # min -x1 - x3 with x3 = 1 and x1 - x2 <= 1: the ray x1 = x2 + 1
        res = lp_solve(np.array([-1.0, 0.0, -1.0]), A_ub=[[1.0, -1.0, 0.0]], b_ub=[1.0],
                       A_eq=[[0.0, 0.0, 1.0]], b_eq=[1.0])
        assert res.status == "Unbounded"

    def test_beale_cycling_example(self, monkeypatch):
        # Beale (1955), the classic LP on which the textbook simplex cycles
        # under Dantzig's rule: degenerate at the origin, where the steps
        # here switch to Bland's rule
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        A = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0]])
        real = solve._pick
        degenerate = []

        def spy(ratio):
            degenerate.append(ratio.min() == 0.0)  # the next step runs Bland's rule
            return real(ratio)

        monkeypatch.setattr(solve, "_pick", spy)
        res = lp_solve(c, A_ub=A, b_ub=[0.0, 0.0, 1.0])
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(-1.0 / 20.0, rel=1e-12)
        assert res.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)
        assert any(degenerate)

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

    @staticmethod
    def _posed_lp(monkeypatch, design, wanted):
        """The LP (c, A_ub, b_ub, A_eq, b_eq, tie_break) of the first `lp_solve`
        call that `wanted` accepts."""
        class Posed(Exception):
            pass

        real = solve.lp_solve

        def grab(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, warm=None, tie_break=None):
            if wanted(c):
                raise Posed(c, A_ub, b_ub, A_eq, b_eq, tie_break)
            return real(c, A_ub, b_ub, A_eq, b_eq, warm, tie_break)

        monkeypatch.setattr(solve, "lp_solve", grab)
        with pytest.raises(Posed) as caught:
            design()
        monkeypatch.undo()
        return caught.value.args

    @pytest.mark.parametrize("designer", ["rate", "utility", "min_iter_start"])
    def test_matches_the_one_shot_solve(self, rho_x7, monkeypatch, designer):
        # the LPs that the designers pose for the Fig. 2 code: 4096 grid rows,
        # or the utility LP's 2^3 pieces of 112 Bernstein coefficients of the
        # degree-111 step polynomial and its rate floor, at 8*zeta or, as
        # min-iter's start, at zeta
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16, R_d=0.45)
        design, wanted = {
            "rate": (lambda: design_rate(rho_x7, X7_EPS, 16), lambda c: True),
            "utility": (lambda: design_utility(
                            replace(spec, zeta_tilde=8.0 * spec.context().zeta)),
                        lambda c: c.size == 16),
            "min_iter_start": (lambda: design_min_iterations(spec), lambda c: True),
        }[designer]
        c, A, b, A_eq, b_eq, _ = self._posed_lp(monkeypatch, design, wanted)
        assert A.shape[0] >= (spec.grid_n if designer == "rate" else 8 * 112 + 1)
        ref = full_lp_reference(c, A, b, A_eq, b_eq)
        assert ref.status == 0
        res = lp_solve(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq)
        assert res.status == "Optimal"
        # the exact vertex and HiGHS's differ in the utility LP's t (1.5e-4)
        # by 5e-17; the absolute floor admits that much and no more
        assert res.objective == pytest.approx(ref.fun, rel=1e-12, abs=1e-15)
        assert np.max(np.abs(res.x - ref.x)) <= 1e-9
        assert np.all(A @ res.x <= b + 1e-10)
        assert res.dual_ub.shape == (A.shape[0],)
        assert np.all(res.dual_ub[b - A @ res.x > 1e-9] == 0.0)

    def _cell_lp(self, monkeypatch, rho_x7, rho_mix, cell):
        """(c, A_ub, b_ub, A_eq, b_eq, tie_break) of a named LP: the rate LP
        of a defect-A cell (ROADMAP item 1), the Fig. 2 utility LP at
        8*zeta, the d_v 30 mix rate tie-break at ratio 0.90 posed as its own
        LP with the rate pinned (`pinned_tie_break`), or Beale's."""
        if cell == "beale":
            c = np.array([-0.75, 150.0, -0.02, 6.0])
            A = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                          [0.0, 0.0, 1.0, 0.0]])
            return c, A, np.array([0.0, 0.0, 1.0]), None, None, None
        if cell == "fig2_utility":
            spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16, R_d=0.45)
            return self._posed_lp(monkeypatch, lambda: design_utility(
                replace(spec, zeta_tilde=8.0 * spec.context().zeta)), lambda c: True)
        if cell == "mix_dv30_tie_break":
            c, A, b, A_eq, b_eq, e2 = self._posed_lp(
                monkeypatch, lambda: design_rate(rho_mix, MIX_EPS, 30), lambda c: True)
            rate_lp = lp_solve(c, A, b, A_eq, b_eq)
            return (*pinned_tie_break(c, A, b, A_eq, b_eq, e2, rate_lp.objective), None)
        return self._posed_lp(monkeypatch, lambda: design_rate(rho_x7, *cell), lambda c: True)

    @pytest.mark.parametrize("cell", [(0.52, 16), (0.48, 12), (0.50, 20), (0.48, 16),
                                      (0.50, 16), "fig2_utility", "mix_dv30_tie_break"],
                             ids=lambda cell: cell if isinstance(cell, str)
                             else "rate_eps{}_dv{}".format(*cell))
    def test_matches_highs(self, rho_x7, rho_mix, monkeypatch, cell):
        # HiGHS as an independent oracle, posed cold and with no tie-break: the
        # rate LPs of the five defect-A cells, the Fig. 2 utility LP at 8*zeta,
        # and the d_v 30 mix rate tie-break LP with its two equality rows
        c, A, b, A_eq, b_eq, _ = self._cell_lp(monkeypatch, rho_x7, rho_mix, cell)
        ref = full_lp_reference(c, A, b, A_eq, b_eq)
        res = lp_solve(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq)
        assert res.status == {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}[ref.status]
        # HiGHS's vertex misses rows by up to ~2e-12, which lowers its objective
        # by at most those misses priced at this vertex's multipliers (weak
        # duality): 3.0e-7 on the tie-break, whose optimum moves 1e5 times as
        # fast as its rate pin, and below 1e-9 relative on the others
        priced = (res.dual_ub @ np.maximum(A @ ref.x - b, 0.0)
                  + res.dual_eq @ (np.asarray(A_eq) @ ref.x - np.asarray(b_eq)))
        tol = 1e-9 * abs(ref.fun)
        assert -tol <= res.objective - ref.fun <= priced + tol
        if cell != "mix_dv30_tie_break":
            assert res.objective == pytest.approx(ref.fun, rel=1e-9)

    # the most that an updated vertex inverse may miss inverting G[w] by,
    # |G[w] @ inverse - I| after every update and so at each refactor: with
    # `REFACTOR_STEPS` 16, measured at most 5.8e-11 over the LPs of
    # `reproduce all`, 1.5e-9 over 600 random LPs and 1.1e-8 on the d_v 30
    # tie-break LP posed cold, whose vertex matrices reach condition 3e8
    DRIFT_BOUND = 1e-6

    @pytest.mark.parametrize("cell", [(0.52, 16), (0.48, 12), (0.50, 20), (0.48, 16),
                                      (0.50, 16), "fig2_utility", "mix_dv30_tie_break",
                                      "beale"],
                             ids=lambda cell: cell if isinstance(cell, str)
                             else "rate_eps{}_dv{}".format(*cell))
    def test_updated_inverse_takes_the_lu_steps(self, rho_x7, rho_mix, monkeypatch, cell):
        # the LPs of test_matches_highs and Beale's, each rate LP with its
        # tie-break on the optimal face: every `_simplex` call of the row
        # generation passes through the vertices that factoring G[w] at every
        # step passes through, and returns the same bits
        c, A, b, A_eq, b_eq, tie_break = self._cell_lp(monkeypatch, rho_x7, rho_mix, cell)
        twin = SimplexTwin(monkeypatch)
        assert lp_solve(c, A, b, A_eq, b_eq, tie_break=tie_break).status == "Optimal"
        assert twin.pairs and twin.drift
        for ref, new in twin.pairs:
            assert SimplexTwin.same_steps(ref, new)
        assert max(twin.drift) <= self.DRIFT_BOUND

    def test_updated_inverse_on_random_lps(self, monkeypatch):
        # 500 seeded LPs, n <= 30, m < 300: where no vertex lies on more than
        # n rows, the same vertices and bits as factoring G[w] at every step.
        # On the degenerate kinds a tie between rows can fall either way by
        # a rounding, and 19 of these 332 LPs (14 of them on 0/1 rows) end
        # on another working set of the same vertex; there the status is
        # the same, and an optimum agrees in c @ x within 1e-12 relative
        twin = SimplexTwin(monkeypatch)
        rng = np.random.default_rng(20261019)
        kinds = set()
        for i in range(500):
            kind = RANDOM_LP_KINDS[i % len(RANDOM_LP_KINDS)]
            c, A, b, A_eq, b_eq = random_lp(rng, kind)
            del twin.pairs[:]
            status = lp_solve(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq).status
            kinds.add((kind, status))
            for ref, new in twin.pairs:
                if kind not in DEGENERATE_LP_KINDS:
                    assert SimplexTwin.same_steps(ref, new), (i, kind)
                    continue
                assert ref[0] == new[0], (i, kind)
                if ref[0] == "Optimal":
                    assert c @ new[2] == pytest.approx(c @ ref[2], rel=1e-12, abs=1e-12)
        assert kinds >= {(kind, s) for kind in RANDOM_LP_KINDS for s in ("Optimal", "Infeasible")}
        assert max(twin.drift) <= self.DRIFT_BOUND

    @pytest.mark.parametrize("cell", [(0.52, 16), (0.48, 12), (0.50, 20), (0.48, 16),
                                      (0.50, 16), "fig2_utility", "mix_dv30_tie_break",
                                      "beale", "random"],
                             ids=lambda cell: cell if isinstance(cell, str)
                             else "rate_eps{}_dv{}".format(*cell))
    def test_cold_basis_is_nonsingular(self, rho_x7, rho_mix, monkeypatch, cell):
        # the equality rows and the bounds of the unknowns that elimination
        # does not free: nonsingular whenever A_eq has full row rank, as on
        # the LPs above (the design LPs' one sum row frees lam_{d_v}, the
        # pinned tie-break's rate row lam_2) and on 300 random LPs
        if cell == "random":
            rng = np.random.default_rng(20261019)
            lps = [random_lp(rng, RANDOM_LP_KINDS[i % len(RANDOM_LP_KINDS)])
                   for i in range(300)]
        else:
            lps = [self._cell_lp(monkeypatch, rho_x7, rho_mix, cell)[:5]]
        for c, A, b, A_eq, b_eq in lps:
            n = c.size
            A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq)
            G = np.vstack([A_eq, A, -np.eye(n)])
            w = solve._cold_basis(A_eq, G.shape[0])
            assert w.size == n and np.array_equal(w[:A_eq.shape[0]], np.arange(A_eq.shape[0]))
            assert np.linalg.matrix_rank(G[w]) == n
        if cell == "mix_dv30_tie_break":
            assert w.tolist() == [0, 1, *range(G.shape[0] - n + 1, G.shape[0] - 1)]

    def test_singular_warm_basis_starts_cold(self, monkeypatch):
        # rows 0 and 1 are one row twice, so a basis of both is singular:
        # lp_solve starts from the cold basis, the bounds, instead
        c, A, b = np.array([-1.0, -2.0]), [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]], [2.0, 2.0, 1.5]
        starts, real = [], solve._simplex

        def spy(c, G, h, n_eq, w, held):
            starts.append(w.tolist())
            return real(c, G, h, n_eq, w, held)

        monkeypatch.setattr(solve, "_simplex", spy)
        cold = lp_solve(c, A, b)
        warm = lp_solve(c, A, b, warm=replace(cold, basis=np.array([0, 1])))
        assert starts == [[3, 4], [3, 4]]
        assert warm.status == cold.status == "Optimal"
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.x == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_warm_start_keeps_the_generated_rows(self, monkeypatch):
        # rows tangent to a circle at 257 angles, 64 of them seed rows.  Max
        # x_1 + x_2 ends on rows 128 and 129 in two rounds, the second adding
        # 127; max 1.01*x_1 + x_2, warm from that result, ends on rows 127 and
        # 128 in one round, as it has row 127 from the working set, not only
        # the seed and the basis rows
        theta = np.linspace(0.0, np.pi / 2, 4 * solve.WORKING_SET_N + 1)
        A, b = np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(theta.size)
        rounds, real = [], solve._simplex

        def spy(*args):
            rounds.append(0)
            return real(*args)

        monkeypatch.setattr(solve, "_simplex", spy)
        first = lp_solve(np.array([-1.0, -1.0]), A, b)
        assert len(rounds) == 2 and first.basis.tolist() == [128, 129]
        assert 127 in first.working_set
        c = np.array([-1.01, -1.0])
        rounds.clear()
        warm = lp_solve(c, A, b, warm=first)
        assert len(rounds) == 1 and warm.basis.tolist() == [127, 128]
        cold = lp_solve(c, A, b)
        assert warm.status == cold.status == "Optimal"
        assert warm.x.tobytes() == cold.x.tobytes()

    def test_unbounded_until_a_row_outside_the_seed(self, monkeypatch):
        # max x: only row 1 bounds it, and no evenly spaced seed holds row 1
        m = 4 * solve.WORKING_SET_N + 1
        A = -np.ones((m, 1))
        b = np.zeros(m)
        A[1, 0], b[1] = 1.0, 3.0
        sizes = []
        real = solve._simplex

        def spy(c, G, h, n_eq, w, held):
            sizes.append(len(h) - c.size - n_eq)  # the rows of A_ub in the round
            return real(c, G, h, n_eq, w, held)

        monkeypatch.setattr(solve, "_simplex", spy)
        res = lp_solve(np.array([-1.0]), A_ub=A, b_ub=b)
        assert sizes == [solve.WORKING_SET_N, m]  # seed, then every row
        assert res.status == "Optimal"
        assert res.x == pytest.approx([3.0], abs=1e-12)
        assert res.dual_ub[1] == pytest.approx(1.0, abs=1e-10)
        assert np.count_nonzero(res.dual_ub) == 1

    def test_infeasible_through_a_row_outside_the_seed(self):
        # min x over x >= 0: the seed is solved by x = 0, which row 1 (x <= -1)
        # rejects; adding it makes the working set, hence the LP, infeasible
        m = 4 * solve.WORKING_SET_N + 1
        A = -np.ones((m, 1))
        b = np.zeros(m)
        A[1, 0], b[1] = 1.0, -1.0
        res = lp_solve(np.array([1.0]), A_ub=A, b_ub=b)
        assert res.status == "Infeasible"
        assert res.x.size == 0


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

    def test_zeta_tilde_domain(self, rho_x7):
        # xi = 1 - (1 - 0.5)^7 = 0.9921875 for rho = x^7
        with pytest.raises(DomainError):
            self.make(rho_x7, zeta_tilde=0.9999).validate()
        with pytest.raises(DomainError):
            self.make(rho_x7, zeta_tilde=-0.1).validate()
        self.make(rho_x7, zeta_tilde=0.99).validate()

    @pytest.mark.parametrize("grid_n", [0, -5])
    def test_grid_n_floor(self, rho_x7, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            self.make(rho_x7, grid_n=grid_n).validate()


class TestDesignRate:
    def test_single_degree_feasible(self, rho_x7):
        # lam = x is stable at eps = 0.1 (eps*rho'(1) = 0.7 < 1)
        rep = design_rate(rho_x7, 0.1, 2)
        assert rep.status == "Optimal"
        assert rep.lam.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert rep.objective == pytest.approx(0.75, abs=1e-12)
        assert rep.max_violation <= solve.MARGIN
        assert rep.certificate.passed and rep.rounds == 0

    @pytest.mark.parametrize("eps, d_v", [(X7_EPS, 16), (0.6, 8)])
    def test_rate_lp_starts_at_the_top_degree(self, rho_x7, monkeypatch, eps, d_v):
        # the cold basis is the sum row and the bounds on lam_2 .. lam_{d_v-1}
        # (the sum row frees lam_{d_v}, its last unknown): the vertex
        # lam = x^{d_v-1} that `_reach_note` tests, feasible whenever the LP
        # is (the second cell is not)
        starts, real = [], solve._simplex

        def spy(c, G, h, n_eq, w, held):
            starts.append((G, h, w.copy()))
            return real(c, G, h, n_eq, w, held)

        monkeypatch.setattr(solve, "_simplex", spy)
        design_rate(rho_x7, eps, d_v, grid_n=512)
        G, h, w = starts[0]
        n = d_v - 1
        assert w.tolist() == [0, *range(h.size - n, h.size - 1)]
        assert np.array_equal(np.linalg.solve(G[w], h[w]), np.eye(n)[-1])

    @pytest.mark.parametrize("grid_n", [0, -5])
    def test_grid_n_floor(self, rho_x7, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            design_rate(rho_x7, X7_EPS, 16, grid_n=grid_n)

    def test_single_degree_infeasible(self, rho_x7):
        rep = design_rate(rho_x7, 0.5, 2)
        assert rep.status == "Infeasible"
        assert "Infeasible" in rep.detail
        assert rep.lam is None

    @pytest.mark.parametrize("rho_map, eps, d_v, x_text", [
        ({8: 1.0}, 0.6, 8, "0.895016"),
        ({7: 0.542, 8: 0.458}, 0.52, 4, "0.676257"),
    ])
    def test_infeasible_names_the_reach_of_d_v(self, rho_map, eps, d_v, x_text):
        # the least lam(x) over the simplex is x^{d_v-1}; it crosses psi - MARGIN
        # first at the named grid row, so no lam of degree <= d_v fits
        rho = DegreeDistribution(rho_map)
        rep = design_rate(rho, eps, d_v, grid_n=1024)
        assert rep.status == "Infeasible" and rep.lam is None
        assert rep.detail == (
            f"grid LP is Infeasible: eps {eps} exceeds what degree <= {d_v} reaches: "
            f"even lam = x^{d_v - 1} exceeds psi - MARGIN at x={x_text}")
        ctx = DEContext.create(rho, eps, eta=eps * 1e-6)
        xs = ctx.xi * np.arange(1, 1025) / 1024
        first = xs[np.flatnonzero(xs ** (d_v - 1) > psi(ctx, xs) - solve.MARGIN)[0]]
        assert f"{first:.6g}" == x_text

    def test_infeasible_rows_that_admit_x_pow_d_v_cannot_tell(self):
        xs = np.array([0.25, 0.5])
        note = solve._reach_note(xs, xs ** 3 + 1e-3, 0.4, 4)
        assert note == "no row excludes lam = x^3; this detail cannot tell why"

    def test_negative_rate_is_no_code(self):
        # the LP is feasible and its design certified, but the best rate
        # this rho and d_v reach at this eps is below zero
        rho = DegreeDistribution({7: 0.542, 8: 0.458})
        rep = design_rate(rho, 0.5203397591752276, 8, grid_n=512)
        assert rep.status == "Infeasible" and rep.lam is None
        assert rep.detail == "the rate-maximal design has rate -0.0128847 <= 0"

    def test_rate_ceiling_published_value(self, rho_x7, rate_512):
        rep = rate_512
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(0.4714, abs=1e-3)
        assert rep.lam.coeff(2) == pytest.approx(0.2673, abs=2e-3)
        assert rep.max_violation <= solve.MARGIN
        assert rep.certificate.passed
        assert rate(Ensemble(rep.lam, rho_x7)) == pytest.approx(rep.objective, rel=1e-12)
        ctx = DEContext.create(rho_x7, X7_EPS, 1e-5)
        assert recursion_margin(Ensemble(rep.lam, rho_x7), ctx, 100_000)[0] > 0.0

    def test_deterministic(self, rho_x7):
        a = design_rate(rho_x7, X7_EPS, 16, grid_n=256)
        b = design_rate(rho_x7, X7_EPS, 16, grid_n=256)
        assert np.array_equal(a.lam.dense, b.lam.dense)
        assert a.objective == b.objective

    def test_mix_rate_lp_near_ratio_0947(self, rho_mix, monkeypatch):
        # eps halfway between ratios 0.9 and 1 at R_d = 0.5, and eps = 0.46:
        # HiGHS's tie-break vertex missed the 1e-8 complementary-slackness
        # gate here (residuals 8.0e-7 and 7.1e-7); the design's one LP per
        # round, its tie-break included, meets it
        real = solve.lp_solve
        residuals = []

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            residuals.append(res.kkt_residual)
            return res

        monkeypatch.setattr(solve, "lp_solve", spy)
        for eps in (0.5 * (MIX_EPS + 0.5), 0.46):
            del residuals[:]
            rep = design_rate(rho_mix, eps, 16)
            assert rep.status == "Optimal"
            assert rep.certificate.passed
            assert rep.max_violation <= solve.MARGIN
            assert rep.detail == ""
            assert len(residuals) == rep.rounds + 1
            assert max(residuals) <= 1e-8

    def test_dv30_tie_break_passes(self, rho_mix):
        # the tie-break vertex of the d_v = 30 rate ceiling at ratio 0.90
        # (R_d 0.5) passes both KKT gates on all 4096 rows
        rep = design_rate(rho_mix, MIX_EPS, 30)
        assert rep.status == "Optimal"
        assert rep.certificate.passed
        assert rep.detail == ""

    # the cells of Fig. 6 (the d_v = 16 column is the benchmark's rate
    # sweep) and the d_v 30 mix cell at ratio 0.90
    TIE_BREAK_CELLS = [("x7", eps, d_v) for eps in (0.48, 0.50, 0.52)
                       for d_v in (4, 6, 8, 10, 12, 16, 20)] + [("mix", MIX_EPS, 30)]

    @pytest.mark.parametrize("rho_name, eps, d_v", TIE_BREAK_CELLS)
    def test_tie_break_matches_the_pinned_lp(self, rho_x7, rho_mix, monkeypatch,
                                             rho_name, eps, d_v):
        # the tie-break on the optimal face against the same tie-break posed
        # as a second LP with the rate pinned: the same status and rate, and
        # lam within 1e-9.  Measured: at most 7.1e-12 on the x^7 cells and
        # 2.1e-10 on the mix cell, whose pinned optimum moves 1.2e5 times as
        # fast as a miss of its pin row.  On two cells (eps 0.48 d_v 8, eps
        # 0.50 d_v 12) the pinned LP leaves 1.7e-16 and 1.4e-16 on lam_3,
        # round-off of its pin row, where the face holds lam_3 at an exact 0;
        # the support is compared above that
        rho = rho_x7 if rho_name == "x7" else rho_mix
        new = design_rate(rho, eps, d_v)
        monkeypatch.setattr(solve, "lp_solve", reference_tie_break(solve.lp_solve))
        ref = design_rate(rho, eps, d_v)
        assert new.status == ref.status
        if ref.lam is None:
            return
        assert new.rounds == ref.rounds
        assert new.objective == pytest.approx(ref.objective, rel=1e-13)
        assert new.lam.degrees == tuple(j for j in ref.lam.degrees if ref.lam.coeff(j) > 1e-15)
        assert np.max(np.abs(new.lam.dense - ref.lam.dense)) <= 1e-9

    def test_coarse_grid_refines_downward(self, rho_x7, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(solve, "REFINE_ROUNDS", 0)
            cand = design_rate(rho_x7, X7_EPS, 16, grid_n=64)
        assert cand.status == "CertificateFail"
        assert cand.max_violation > solve.MARGIN
        ref = design_rate(rho_x7, X7_EPS, 16, grid_n=64)
        assert ref.status == "Optimal"
        assert ref.certificate.passed
        assert ref.max_violation <= solve.MARGIN
        assert ref.rounds >= 1
        # the lax grid overestimates the ceiling; refinement walks it down
        assert ref.objective < cand.objective
        assert ref.objective == pytest.approx(0.471454, abs=5e-4)

    def test_exhausted_refinement_names_the_certificate(self, rho_x7, monkeypatch):
        monkeypatch.setattr(solve, "REFINE_ROUNDS", 0)
        rep = design_rate(rho_x7, X7_EPS, 16, grid_n=64)
        cert = rep.certificate
        assert rep.status == "CertificateFail" and rep.rounds == 0
        assert cert.kind == "SturmFail"
        assert rep.max_violation == -cert.margin
        assert rep.detail == f"certificate margin {cert.margin:.3e} at x={cert.witness!r}"

    @pytest.mark.parametrize("grid_n", [64, 128])
    def test_refinement_bisects_only_the_witness(self, rho_x7, monkeypatch, grid_n):
        # the grid's psi rows are bisected once; each certificate round adds
        # its witness row alone, and every other inversion is a single anchor
        sizes = []
        real = _kernels.bisect_increasing

        def counting(coef, targets):
            sizes.append(np.asarray(targets).size)
            return real(coef, targets)

        monkeypatch.setattr(_kernels, "bisect_increasing", counting)
        rep = design_rate(rho_x7, X7_EPS, 16, grid_n=grid_n)
        assert rep.status == "Optimal" and rep.rounds >= 2
        assert sizes[0] == grid_n and set(sizes[1:]) == {1}

    # the Fig. 6 cells whose first grid LP crosses psi between its rows
    @pytest.mark.parametrize("eps, d_v", [(0.48, 8), (0.48, 12), (0.50, 12),
                                          (0.50, 20), (0.52, 12)])
    def test_certificate_refines_fig6_cells(self, rho_x7, monkeypatch, eps, d_v):
        with monkeypatch.context() as m:
            m.setattr(solve, "REFINE_ROUNDS", 0)
            first = design_rate(rho_x7, eps, d_v)
        assert first.status == "CertificateFail"
        rep = design_rate(rho_x7, eps, d_v)
        assert rep.status == "Optimal" and rep.rounds >= 1
        assert rep.certificate.kind == "SturmPass"
        assert rep.max_violation == -rep.certificate.margin
        ctx = DEContext.create(rho_x7, eps, eps * 1e-6)
        assert recursion_margin(Ensemble(rep.lam, rho_x7), ctx, 100_000)[0] > 0.0


# the Fig. 2 utility design and the three Fig. 4 ones, at the default grid
CERTIFIED_DESIGNS = {
    "fig2": dict(rho={8: 1.0}, epsilon=0.5, eta=1e-5, R_d=0.45),
    "fig4_090": dict(rho="mix", epsilon=1.0 - 0.5 / 0.90, eta=1e-3, R_d=0.5),
    "fig4_094": dict(rho="mix", epsilon=1.0 - 0.5 / 0.94, eta=1e-3, R_d=0.5),
    "fig4_098": dict(rho="mix", epsilon=1.0 - 0.5 / 0.98, eta=1e-3, R_d=0.5),
}


def _n_candidates(spec: DesignSpec) -> int:
    """How many zeta_tilde anchors `_tune_zeta_tilde` tries for `spec`."""
    ctx = spec.context()
    return sum(f * ctx.zeta < 0.5 * ctx.xi for f in solve.TUNE_FACTORS)


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
        direct = utility(rep.lam, ctx, zeta_tilde=rep.zeta_tilde)
        assert rep.t == pytest.approx(direct.value, abs=5e-7)
        assert rep.t > 0.0

    def test_rate_floor_above_ceiling(self, rho_x7):
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16, R_d=0.48)
        rep = design_utility(spec)
        assert rep.status == "Infeasible"
        assert "exceeds R_max=0.4714" in rep.detail

    @pytest.mark.parametrize("designer", [design_utility, design_min_iterations])
    def test_failed_ceiling_says_it_failed(self, rho_x7, designer):
        # lam = x alone is unstable at eps = 0.5: the d_v = 2 ceiling LP is infeasible
        rep = designer(DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=2, R_d=0.3,
                                  grid_n=512))
        assert rep.status == "Infeasible"
        assert rep.detail == (
            "rate ceiling failed: Infeasible; grid LP is Infeasible: eps 0.5 exceeds what "
            "degree <= 2 reaches: even lam = x^1 exceeds psi - MARGIN at x=0.00193787")

    def test_published_mix_design(self, rho_mix, utility_mix):
        spec, rep = utility_mix
        assert rep.status == "Optimal"
        assert rep.t == pytest.approx(0.0146, abs=1e-3)
        assert rep.certificate is not None and rep.certificate.passed
        assert rep.max_violation <= solve.MARGIN
        assert 0.0 <= rep.optimality_gap < 1e-5
        # the rate floor is active: moving mass to lower degrees would
        # raise the step floor but break R >= 0.5
        assert rate(Ensemble(rep.lam, rho_mix)) == pytest.approx(0.5, abs=1e-6)
        assert recursion_margin(Ensemble(rep.lam, rho_mix), spec.context(), 100_000)[0] > 0.0

    @pytest.mark.parametrize("name", sorted(CERTIFIED_DESIGNS))
    def test_certificate_passes(self, rho_mix, name):
        kw = dict(CERTIFIED_DESIGNS[name])
        rho = rho_mix if kw.pop("rho") == "mix" else DegreeDistribution({8: 1.0})
        spec = DesignSpec(rho=rho, d_v=16, **kw)
        rep = design_utility(spec)
        assert rep.status == "Optimal"
        assert rep.certificate.kind == "SturmPass"
        assert rep.max_violation == -rep.certificate.margin
        ctx = spec.context()
        zt = rep.zeta_tilde
        above = certify(compile_constraint(rep.lam, 1.01 * rep.t, rho, spec.epsilon,
                                           zt, ctx.xi))
        assert not above.passed
        assert zt <= above.witness <= ctx.xi

    def test_fig2_support_is_clean(self, rho_x7):
        # the LP leaves ~1e-30 on degrees 4-15; renormalizing drops it
        rep = design_utility(DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45,
                                        d_v=16))
        assert rep.status == "Optimal"
        assert rep.lam.degrees == (2, 3, 16)

    def test_failing_certificate_is_not_optimal(self, rho_x7, monkeypatch):
        fail_own_certificate(monkeypatch)
        spec = DesignSpec(rho=rho_x7, epsilon=0.1, eta=1e-5, d_v=2,
                          R_d=0.7, grid_n=512)
        rep = design_utility(spec)
        assert rep.status == "CertificateFail" and not rep.ok
        assert rep.lam.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert rep.t > 0.0

    def test_dominates_rate_design(self, rho_mix, utility_mix):
        spec, rep = utility_mix
        rmax = design_rate(rho_mix, MIX_EPS, 16, grid_n=1024)
        zt = rep.zeta_tilde
        u_rate = utility(rmax.lam, spec.context(), zeta_tilde=zt)
        assert rep.t >= u_rate.value
        assert rep.t > u_rate.value + 0.01  # rate design hugs psi, tiny floor


FIGURE_MIN_ITER = ["fig2_r045", "fig2_r040", "fig4_090", "fig4_094", "fig4_098",
                   "fig5_dv12", "fig5_dv16", "fig5_dv30", "fig7_eta2", "fig7_eta3",
                   "fig7_eta5"]


def _figure_min_iter_spec(name: str, rho_x7, fixtures) -> DesignSpec:
    """The min-iter design that `reproduce` draws in figure cell `name`."""
    fig, cell = name.split("_")
    if fig == "fig2":
        return DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=int(cell[1:]) / 100, d_v=16)
    if fig == "fig4":
        rho = fixtures.get("mix_dv16").ensemble.rho
        return DesignSpec(rho=rho, epsilon=1.0 - 0.5 / (int(cell) / 100), eta=1e-3, R_d=0.5,
                          d_v=16)
    f = fixtures.get(f"mix_{cell}")
    return DesignSpec(rho=f.ensemble.rho, epsilon=f.params["epsilon"], eta=f.params["eta"],
                      R_d=0.5 if fig == "fig5" else 0.488,
                      d_v=int(cell[2:]) if fig == "fig5" else 16)


class TestDesignMinIterations:
    def test_published_coefficient(self, miniter_045):
        spec, rep = miniter_045
        assert rep.status == "Optimal"
        assert rep.lam.coeff(2) == pytest.approx(0.2126, abs=0.02)
        # mass moves off degree 2 relative to the rate-optimal 0.2673
        assert rep.lam.coeff(2) < 0.25

    def test_barrier_coefficients_are_kept(self, miniter_045, monkeypatch):
        # renormalizing the solver's vector drops only what is at most
        # 2**-53 of its total; every larger coefficient is reported
        spec, _ = miniter_045
        raw = []
        renormalized = DegreeDistribution.renormalized

        def spy(self, *args, **kwargs):
            raw.append(self.coeffs)
            return renormalized(self, *args, **kwargs)

        monkeypatch.setattr(DegreeDistribution, "renormalized", spy)
        rep = design_min_iterations(spec)
        vec = raw[-1]
        dust = math.ldexp(sum(v for v in vec.values() if v > 0.0), -53)
        assert set(rep.lam.degrees) == {d for d, v in vec.items() if v > dust}

    @pytest.mark.parametrize("rho_name, R_d", [("x7", 0.45), ("mix_eta5", 0.488)])
    def test_objective_is_the_reported_estimate(self, rho_x7, fixtures, rho_name, R_d):
        # the design minimizes code_estimates' approx_N, on its own
        # grid_n log-P nodes instead of CODE_QUAD_POINTS
        rho = rho_x7 if rho_name == "x7" else fixtures.get(rho_name).ensemble.rho
        spec = DesignSpec(rho=rho, epsilon=0.5, eta=1e-5, d_v=16, R_d=R_d)
        rep = design_min_iterations(spec)
        assert rep.status == "Optimal"
        want = code_estimates(Ensemble(rep.lam, rho), spec.context()).approx_N
        assert rep.objective == pytest.approx(want, rel=1e-5)

    def test_rate_floor_active(self, rho_x7, miniter_045):
        _, rep = miniter_045
        assert rate(Ensemble(rep.lam, rho_x7)) == pytest.approx(0.45, abs=1e-6)

    def test_convergence_quality(self, miniter_045):
        spec, rep = miniter_045
        assert rep.max_violation <= solve.MARGIN
        assert 0.0 <= rep.optimality_gap <= solve.KKT_TOL
        assert np.isfinite(rep.objective) and rep.objective > 0.0

    def test_rate_ceiling_leaves_no_interior(self, rho_x7):
        # R_max on the rate LP's grid is below the ceiling on [zeta, xi]
        # (ROADMAP item 1), so the start LP still finds lam with
        # psi - lam >= t*psi' there, t ~ 2e-8; the active-set method
        # converges from it to a lam that crosses psi between the nodes,
        # and its own certificate fails the design
        ceiling = design_rate(rho_x7, X7_EPS, 16, grid_n=1024)
        spec_top = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                              R_d=ceiling.objective, grid_n=1024)
        rep = design_min_iterations(spec_top)
        assert rep.status == "CertificateFail"
        assert rep.detail.startswith("certificate margin -")
        assert rep.certificate.kind == "SturmFail"
        assert rep.max_violation == -rep.certificate.margin > 0.0
        assert rep.optimality_gap <= solve.KKT_TOL
        assert not np.array_equal(rep.lam.dense, ceiling.lam.dense)

    @pytest.mark.parametrize("name", ["fig2_r045", "fig5_dv30"])
    def test_kkt_residual_is_within_tolerance(self, fixtures, miniter_045, name):
        # the projected gradient and every bound and floor multiplier meet
        # KKT_TOL; unused degrees are exact zeros, so the Fig. 5 d_v 30
        # design ends below degree 30
        if name == "fig2_r045":
            spec, rep = miniter_045
        else:
            f = fixtures.get("mix_dv30")
            spec = DesignSpec(rho=f.ensemble.rho, epsilon=f.params["epsilon"],
                              eta=f.params["eta"], R_d=0.5, d_v=30)
            rep = design_min_iterations(spec)
            assert rep.lam.d_max < spec.d_v
        assert rep.status == "Optimal"
        assert 0.0 <= rep.optimality_gap <= solve.KKT_TOL
        assert len(rep.lam.degrees) < spec.d_v - 1

    def test_newton_step_cap_is_iterlimit(self, rho_x7, monkeypatch):
        # three steps from the start vertex leave the KKT residual far
        # above KKT_TOL, so the design is IterLimit whatever its certificate
        monkeypatch.setattr(solve, "MAX_NEWTON_STEPS", 3)
        rep = design_min_iterations(DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5,
                                               R_d=0.45, d_v=16, grid_n=512))
        assert rep.status == "IterLimit"
        assert rep.optimality_gap > solve.KKT_TOL
        assert rep.detail.startswith("active-set Newton ran out its MAX_NEWTON_STEPS=3 "
                                     "steps at KKT residual ")

    def test_iterlimit_design_is_still_certified(self, rho_x7, monkeypatch):
        # IterLimit outranks the certificate, which rides along with its cause
        monkeypatch.setattr(solve, "MAX_NEWTON_STEPS", 3)
        R_max = design_rate(rho_x7, X7_EPS, 16, grid_n=512).objective
        rep = design_min_iterations(DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5,
                                               R_d=R_max, d_v=16, grid_n=512))
        # at the grid ceiling, three steps from the start vertex leave lam
        # across psi between the nodes
        assert rep.status == "IterLimit"
        assert rep.certificate.kind == "SturmFail"
        assert rep.max_violation == -rep.certificate.margin > 0.0
        assert rep.detail.endswith(f"; certificate margin {rep.certificate.margin:.3e} "
                                   f"at x={rep.certificate.witness!r}")

    def test_fig5_dv12_converges_with_no_note(self, fixtures):
        # Fig. 5 at d_v 12 meets KKT_TOL with nothing to report, on the
        # published support
        f = fixtures.get("mix_dv12")
        rep = design_min_iterations(DesignSpec(
            rho=f.ensemble.rho, epsilon=f.params["epsilon"], eta=f.params["eta"],
            R_d=0.5, d_v=12))
        assert rep.status == "Optimal"
        assert rep.detail == ""
        assert rep.optimality_gap <= solve.KKT_TOL
        assert rep.lam.degrees == f.ensemble.lam.degrees

    @pytest.mark.parametrize("R_d, name", [(0.45, "x7_coc_r045"), (0.40, "x7_coc_r040")])
    def test_fig2_support_is_the_published_support(self, rho_x7, fixtures, R_d, name):
        # support only, not coefficients: every degree the design uses, and
        # no other, carries weight in the published code
        rep = design_min_iterations(DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5,
                                               R_d=R_d, d_v=16))
        assert rep.status == "Optimal"
        assert rep.lam.degrees == fixtures.get(name).ensemble.lam.degrees == (2, 3, 16)

    def test_hankel_moments_are_the_hessian(self, fixtures):
        # X'diag(c)X from the moments sum c_i*x_i^p on the Fig. 5 nodes,
        # with c = w/g^3 at the published design
        f = fixtures.get("mix_dv16")
        lam, rho, d_v = f.ensemble.lam, f.ensemble.rho, 16
        ctx = DEContext.create(rho, 1.0 - 0.5 / 0.97, 1e-3)
        ps, du = _kernels.log_p_nodes(ctx.eta, ctx.epsilon, solve.DEFAULT_GRID_N)
        xs = 1.0 - rho.eval(1.0 - ps)
        g = ps / ctx.epsilon - lam.eval(xs)
        assert g.min() > 0.0
        c = ps * du / ctx.epsilon / g**3
        M = solve._vandermonde(xs, 2 * d_v - 1)
        X = M[:, :d_v - 1]
        want = (X.T * c) @ X
        got = (M.T @ c)[np.add.outer(np.arange(d_v - 1), np.arange(d_v - 1)) + 1]
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("name", FIGURE_MIN_ITER)
    def test_row_form_matches_the_reference(self, rho_x7, fixtures, name):
        # the working set over the rows of G steps as the bounds-and-floor
        # method does, on each min-iter design that `reproduce all` draws
        statuses, (ref, new) = ActiveSetTwin.design_both_ways(
            _figure_min_iter_spec(name, rho_x7, fixtures))
        assert statuses == ["Optimal", "Optimal"]
        assert ActiveSetTwin.same_run(ref, new), (ref, new)

    @pytest.mark.parametrize("name", ["fig2_r045", "fig2_r040", "fig5"])
    def test_newton_steps_are_capped(self, rho_x7, fixtures, monkeypatch, name):
        # work, not wall time: one factorization of the working rows per step
        mix = fixtures.get("mix_dv16").ensemble.rho
        spec = {"fig2_r045": DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45, d_v=16),
                "fig2_r040": DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.40, d_v=16),
                "fig5": DesignSpec(rho=mix, epsilon=1.0 - 0.5 / 0.97, eta=1e-3, R_d=0.5,
                                   d_v=16)}[name]
        real = np.linalg.qr
        steps = []

        def spy(*args, **kwargs):
            if sys._getframe(1).f_code is solve._active_set.__code__:
                steps.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        rep = design_min_iterations(spec)
        assert rep.status == "Optimal"
        assert 0 < len(steps) <= 50

    def test_stalled_line_search_stops_at_once(self, rho_x7, monkeypatch):
        # the Newton step turned uphill: no alpha down to 1e-12 decreases the
        # objective, so the run stops after that one step, not after 100
        real = np.linalg.lstsq
        steps = []

        def uphill(*args, **kwargs):
            steps.append(1)
            p, *rest = real(*args, **kwargs)
            return (-p, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", uphill)
        rep = design_min_iterations(DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5,
                                               R_d=0.45, d_v=16, grid_n=512))
        assert len(steps) == 1
        assert rep.status == "IterLimit"
        assert rep.optimality_gap > solve.KKT_TOL
        assert rep.detail.startswith(
            f"active-set Newton line search stalled at step 1 at KKT residual "
            f"{rep.optimality_gap:.3e}")

    def test_optimal_carries_a_passed_certificate(self, miniter_045):
        _, rep = miniter_045
        assert rep.status == "Optimal"
        assert rep.certificate.kind == "SturmPass"
        assert rep.max_violation == -rep.certificate.margin

    def test_failing_certificate_is_not_optimal(self, miniter_045, monkeypatch):
        fail_own_certificate(monkeypatch)
        spec, passed = miniter_045
        rep = design_min_iterations(spec)
        assert rep.status == "CertificateFail" and not rep.ok
        assert np.array_equal(rep.lam.dense, passed.lam.dense)
        assert rep.max_violation == 1.0
        assert rep.detail == "certificate margin -1.000e+00 at x=0.5"

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


class TestTuneZetaTilde:
    """One inversion per candidate anchor, and warm candidate LPs."""

    @pytest.mark.parametrize("name", ["fig2", "mix090_512"])
    def test_warm_start_changes_no_bit(self, rho_x7, rho_mix, monkeypatch, name):
        spec = {"fig2": DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, R_d=0.45, d_v=16),
                "mix090_512": DesignSpec(rho=rho_mix, epsilon=MIX_EPS, eta=1e-3, R_d=0.5,
                                         d_v=16, grid_n=512)}[name]
        # each candidate LP after the first starts from the last Optimal
        # basis and working set; solving every one cold changes no bit of
        # the design
        real = solve.lp_solve
        warmed = []

        def spy(*args, warm=None, **kwargs):
            warmed.append(warm is not None)
            return real(*args, warm=warm, **kwargs)

        monkeypatch.setattr(solve, "lp_solve", spy)
        warm = design_utility(spec)
        assert sum(warmed) == _n_candidates(spec) - 1
        monkeypatch.setattr(solve, "lp_solve",
                            lambda *args, warm=None, **kwargs: real(*args, **kwargs))
        cold = design_utility(spec)
        assert warm.status == cold.status == "Optimal"
        assert warm.zeta_tilde == cold.zeta_tilde
        assert warm.t.hex() == cold.t.hex()
        assert warm.lam.dense.tobytes() == cold.lam.dense.tobytes()

    def test_fig2_calls(self, rho_x7, monkeypatch):
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, R_d=0.45, d_v=16)
        sizes, solves, steps = [], [], []
        real_bisect, real_utility_lp, real_simplex, real_pick = (
            _kernels.bisect_increasing, solve._utility_lp, solve._simplex, solve._pick)

        def bisect(coef, targets):
            sizes.append(np.asarray(targets).size)
            return real_bisect(coef, targets)

        def utility_lp(*args, **kwargs):
            solves.append(0)
            steps.append(0)
            return real_utility_lp(*args, **kwargs)

        def simplex(*args):
            solves[-1] += 1
            return real_simplex(*args)

        def pick(ratio):  # once per vertex step
            steps[-1] += 1
            return real_pick(ratio)

        monkeypatch.setattr(_kernels, "bisect_increasing", bisect)
        monkeypatch.setattr(solve, "_utility_lp", utility_lp)
        monkeypatch.setattr(solve, "_simplex", simplex)
        monkeypatch.setattr(solve, "_pick", pick)
        assert design_utility(spec).status == "Optimal"
        n = _n_candidates(spec)
        # each candidate's rows invert its anchor alone, the chosen anchor's
        # cold re-solve inverts it again, and so does the certificate's compile
        assert sizes == [1] * (n + 2)
        # n tuning LPs and the final one; after the first candidate each
        # starts from a working set that already holds its active rows, and
        # from the last Optimal basis, at most one vertex step from its optimum
        assert len(solves) == n + 1
        assert solves[1:n] == [1] * (n - 1)
        assert sum(solves) <= 12
        assert max(steps[1:n]) <= 1 and sum(steps) <= 20

    @pytest.mark.parametrize("name", ["fig2", "fig4_090", "fig4_094", "fig4_098"])
    def test_capped_recursions_choose_the_same_anchor(self, rho_x7, fixtures, name):
        # a candidate wins only with fewer iterations than the best so far, so
        # its recursion stops one step short of that: the same anchor and
        # report bytes as recursions run out to TUNE_L_MAX, in fewer steps
        # (313 against 321 at ratio 0.90, 3791 against 3885 at 0.98).  Fig. 2's
        # count falls at every anchor up to the last, 8*zeta, so there no
        # recursion stops early.  Neither design falls back to 0.5*zeta
        if name == "fig2":
            spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, R_d=0.45, d_v=16)
        else:
            spec = DesignSpec(rho=fixtures.get("mix_dv16").ensemble.rho,
                              epsilon=1.0 - 0.5 / (int(name[-3:]) / 100), eta=1e-3, R_d=0.5,
                              d_v=16)
        (capped, steps), (uncapped, all_steps) = tuning_capped_and_uncapped(spec)
        assert capped.status == "Optimal" and capped.detail == ""
        assert capped.zeta_tilde == uncapped.zeta_tilde
        assert (json.dumps(cli._report_dict(capped, spec.rho))
                == json.dumps(cli._report_dict(uncapped, spec.rho)))
        assert steps == all_steps if name == "fig2" else steps < all_steps

    def test_no_decoding_candidate_is_said(self, rho_x7, monkeypatch):
        # with a budget of one iteration no candidate decodes: the anchor
        # falls back to 0.5*zeta and the detail says so
        monkeypatch.setattr(solve, "TUNE_L_MAX", 1)
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, R_d=0.45, d_v=16)
        rep = design_utility(spec)
        assert rep.zeta_tilde == 0.5 * spec.context().zeta
        assert rep.status == "Optimal"
        assert rep.detail == ("no zeta_tilde candidate decodes within TUNE_L_MAX=1; "
                              "zeta_tilde = 0.5*zeta")


def _spy_design_rate(monkeypatch) -> list:
    """Record each call of `solve.design_rate` and pass it through."""
    calls = []
    real = solve.design_rate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solve, "design_rate", spy)
    return calls


class TestRateCeilingExplains:
    """The iteration designers design R_max only to explain a failure."""

    def test_success_designs_no_ceiling(self, rho_x7, fixtures, monkeypatch):
        calls = _spy_design_rate(monkeypatch)
        fig2 = DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, R_d=0.45, d_v=16)
        assert design_utility(fig2).status == "Optimal"
        f = fixtures.get("mix_dv16")
        fig5 = DesignSpec(rho=f.ensemble.rho, epsilon=f.params["epsilon"],
                          eta=f.params["eta"], R_d=0.5, d_v=16)
        assert design_min_iterations(fig5).status == "Optimal"
        assert calls == []

    @pytest.mark.parametrize("designer", [design_utility, design_min_iterations])
    def test_failure_designs_one_ceiling(self, rho_x7, monkeypatch, designer):
        calls = _spy_design_rate(monkeypatch)
        rep = designer(DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                                  R_d=0.49, grid_n=1024))
        assert rep.status == "Infeasible"
        assert len(calls) == 1
        assert "required rate 0.49 exceeds R_max=0.4714" in rep.detail

    def test_min_iter_floor_just_above_the_ceiling_names_both_rates(self, rho_x7):
        # R_max(1024) + 3e-7 is above the ceiling on [zeta, xi] as well, so
        # the start LP has no optimum on 2^8 pieces; detail gives both
        # rates at full precision, as they differ in the seventh digit
        R_max = design_rate(rho_x7, X7_EPS, 16, grid_n=1024).objective
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                          R_d=R_max + 3e-7, grid_n=1024)
        rep = design_min_iterations(spec)
        assert rep.status == "Infeasible", rep.detail
        assert f"required rate {spec.R_d!r} exceeds R_max={R_max!r}" in rep.detail

    def test_utility_passes_the_grid_ceiling(self, rho_x7):
        # R_max at grid 1024 depends on the grid (ROADMAP item 1); the
        # utility program reaches 1e-7 beyond it and its own certificate,
        # not that ceiling, decides the design
        R_max = design_rate(rho_x7, X7_EPS, 16, grid_n=1024).objective
        spec = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                          R_d=R_max + 1e-7, grid_n=1024)
        rep = design_utility(spec)
        assert rep.status == "Optimal"
        assert rep.certificate.kind == "SturmPass"
        assert rate(Ensemble(rep.lam, rho_x7)) >= spec.R_d
        assert recursion_margin(Ensemble(rep.lam, rho_x7), spec.context(), 100_000)[0] > 0.0


class TestZScan:
    @pytest.mark.parametrize("rho_name", ["x7", "mix_dv16"])
    def test_scan_matches_psi_at_x_of_z(self, rho_name, rho_x7, fixtures, rng):
        rho = rho_x7 if rho_name == "x7" else fixtures.get("mix_dv16").ensemble.rho
        ctx = DEContext.create(rho, 0.5, 1e-5)
        zs = np.linspace(1.0 - ctx.eta, 1.0 - ctx.epsilon, 4001)
        lam = random_simplex_lambda(rng, d_v=16)
        t = float(rng.uniform(0.0, 0.05))
        xs, gap = _kernels.transfer_gap_scan(lam.dense, rho.dense, ctx.epsilon, t, zs)
        assert np.array_equal(xs, 1.0 - npoly.polyval(zs, rho.dense))
        assert xs[-1] == ctx.xi
        dpsi = psi_deriv(ctx, xs)
        want = psi(ctx, xs) - lam.eval(xs) - t * dpsi
        assert np.max(np.abs(gap - want)) <= 1e-10
        _, step = _kernels.transfer_step(lam.dense, rho.dense, ctx.epsilon, zs)
        assert np.max(np.abs(step - (want + t * dpsi) / dpsi)) <= 1e-10

    def test_no_scan_inverts_a_grid(self, rho_x7, rho_mix, fixtures, monkeypatch):
        sizes = []
        real = _kernels.bisect_increasing

        def counting(coef, targets):
            sizes.append(np.asarray(targets).size)
            return real(coef, targets)

        monkeypatch.setattr(_kernels, "bisect_increasing", counting)
        mix = DesignSpec(rho=rho_mix, epsilon=MIX_EPS, eta=1e-3, d_v=16,
                         R_d=0.5, grid_n=512)
        rep = design_utility(mix)
        assert rep.status == "Optimal"
        # one anchor per zeta_tilde candidate, then the chosen anchor's rows
        # and the certificate's: the design inverts no grid and runs no rate LP
        assert sizes == [1] * (_n_candidates(mix) + 2)
        sizes.clear()
        x7 = DesignSpec(rho=rho_x7, epsilon=X7_EPS, eta=1e-5, d_v=16,
                        R_d=0.45, grid_n=512)
        assert design_min_iterations(x7).status == "Optimal"
        assert sizes == [1, 1]  # the start LP's anchor at zeta, then the certificate's
        for lam, spec in ((rep.lam, mix), (fixtures.get("x7_poc").ensemble.lam, x7)):
            sizes.clear()
            utility(lam, spec.context())
            assert sum(sizes) <= 1
