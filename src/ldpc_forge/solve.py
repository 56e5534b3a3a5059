"""Degree-distribution designers.

Three entry points over a common toolkit:

* `design_rate` - maximize the code rate for fixed rho, eps, d_v.  Linear
  program over lam with the curve constraint lam(x) <= psi(x) - margin on
  a grid, plus exchange refinement against the continuous interval.
* `design_utility` - maximize the worst-case decoding step size t subject
  to psi - lam >= t*psi' on [zeta_tilde, xi] and a rate floor.  Linear
  program in (lam, t); the result carries a compiled nonnegativity
  certificate.  An unset zeta_tilde is tuned by exact decoding cost.
* `design_min_iterations` - minimize the discretized iteration-count
  integral sum psi'(x_i)*dx/(psi(x_i) - lam(x_i)).  The objective is
  convex in lam and blows up as lam touches psi, so a log-barrier Newton
  method over the simplex-and-ratefloor feasible set converges with a
  clean duality-gap bound.

All grids work in the transfer domain: constraining psi - lam > 0 on
(zeta, xi] is exactly the successful-decoding condition on (eta, eps]
because the margin map m(x) = x - eps*lam(1-rho(1-x)) factors through
psi.  LP solves go through `lp_solve`, a thin checked wrapper around
scipy's HiGHS backend with presolve off (`LP_OPTIONS`): presolve was about
99% of every design LP, 4.9 s against 0.047 s for one 4096-row rate LP,
at the same vertex.  Each continuous-interval check scans a fixed grid of
`SCAN_N` points; a designer inverts that grid once per call
(`_scan_grid`) and every exchange round reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import linprog, minimize_scalar

from . import _kernels
from .de_engine import DEContext, de_trace, psi, psi_deriv
from .ensemble import DegreeDistribution, Ensemble, rate as ensemble_rate
from .errors import DomainError, NumericalFailure
from .series import DEFAULT_ORDER, taylor_for
from .sip_compile import NonnegCertificate, certify, compile_constraint

DEFAULT_GRID_N = 4096
DEFAULT_MARGIN = 1e-7
SCAN_N = 100_000
TUNE_FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
TUNE_GRID_N = 512
TUNE_L_MAX = 5000
# HiGHS settings for every LP; `lp_solve` says why presolve is off.
LP_OPTIONS = {"presolve": False,
              "primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class DesignSpec:
    """Parameters shared by the iteration-oriented designers."""

    rho: DegreeDistribution
    epsilon: float
    eta: float
    R_d: float
    d_v: int
    zeta_tilde: Optional[float] = None
    grid_n: int = DEFAULT_GRID_N
    taylor_order: int = DEFAULT_ORDER
    margin: float = DEFAULT_MARGIN
    tol: float = 1e-4

    def validate(self) -> None:
        if not 0.0 < self.eta < self.epsilon < 1.0:
            raise DomainError(self.eta, 0.0, self.epsilon, what="eta")
        if self.d_v < 2:
            raise ValueError("d_v must be >= 2")
        if not 0.0 < self.R_d < 1.0:
            raise ValueError(f"R_d must lie in (0, 1), got {self.R_d}")
        if self.taylor_order <= self.d_v:
            raise ValueError("taylor_order must exceed d_v")
        if self.zeta_tilde is not None:
            ctx = DEContext.create(self.rho, self.epsilon, self.eta)
            if not 0.0 <= self.zeta_tilde < ctx.xi:
                raise DomainError(self.zeta_tilde, 0.0, ctx.xi, what="zeta_tilde")

    def context(self) -> DEContext:
        return DEContext.create(self.rho, self.epsilon, self.eta)

    def resolved_zeta_tilde(self, ctx: DEContext) -> float:
        """Explicit value if set; None means the designers may tune it."""
        return 0.5 * ctx.zeta if self.zeta_tilde is None else self.zeta_tilde


@dataclass(frozen=True)
class SolveReport:
    lam: Optional[DegreeDistribution]
    t: Optional[float]
    objective: float
    max_violation: float
    optimality_gap: float
    status: str
    certificate: Optional[NonnegCertificate]
    method: str
    detail: str = ""
    extra_points: tuple = ()
    rounds: int = 0
    params: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "Optimal"


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    objective: float
    dual_ub: np.ndarray
    dual_eq: np.ndarray
    status: str
    kkt_residual: float


def _expand_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    if bounds is None:
        bounds = (0, None)
    if isinstance(bounds, tuple) and len(bounds) == 2 and not isinstance(bounds[0], (tuple, list)):
        bounds = [bounds] * n
    lb = np.array([-np.inf if lo is None else float(lo) for lo, _ in bounds])
    ub = np.array([np.inf if hi is None else float(hi) for _, hi in bounds])
    return lb, ub


def _polish_vertex(x, mu, A_ub, b_ub, A_eq, b_eq, res, lb, ub) -> np.ndarray:
    """Snap x onto its active set so dual-active rows hold with equality.

    A degenerate vertex can carry duals of order 1e3 while the reported x
    misses the active rows by solver roundoff; the product then dwarfs the
    true complementarity error.  The minimum-norm correction restores an
    exactly complementary pair without moving x materially.
    """
    rows = []
    rhs = []
    if A_ub is not None and mu.size:
        act = mu > 1e-11
        if np.any(act):
            rows.append(A_ub[act])
            rhs.append(b_ub[act])
    if A_eq is not None:
        rows.append(np.asarray(A_eq, dtype=np.float64))
        rhs.append(np.asarray(b_eq, dtype=np.float64))
    rc_lo = np.asarray(res.lower.marginals)
    rc_hi = np.asarray(res.upper.marginals)
    eye = np.eye(x.size)
    for j in range(x.size):
        if abs(rc_lo[j]) > 1e-11 and np.isfinite(lb[j]):
            rows.append(eye[j:j + 1])
            rhs.append(np.array([lb[j]]))
        elif abs(rc_hi[j]) > 1e-11 and np.isfinite(ub[j]):
            rows.append(eye[j:j + 1])
            rhs.append(np.array([ub[j]]))
    if not rows:
        return x
    A_sys = np.vstack(rows)
    r = np.concatenate(rhs) - A_sys @ x
    delta, *_ = np.linalg.lstsq(A_sys, r, rcond=None)
    if not np.all(np.isfinite(delta)) or float(np.max(np.abs(delta))) > 1e-5:
        return x
    x_new = x + delta
    if A_ub is not None:
        if float(np.min(b_ub - A_ub @ x_new)) < -1e-9:
            return x
    if np.any(x_new < lb - 1e-9) or np.any(x_new > ub + 1e-9):
        return x
    return x_new


def lp_solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LPResult:
    """Minimize c @ x with HiGHS and verify the KKT residual.

    HiGHS runs with `LP_OPTIONS`.  Presolve is off because it dominated
    every design LP: one 4096-row rate LP took 4.9 s with it and 0.047 s
    without, reaching the same vertex and objective.  The returned vertex
    is polished onto its active set, then checked: complementary slackness
    at 1e-8 and stationarity at 1e-6 (relative to the dual magnitude).  Returns status "Optimal", "Infeasible", or
    "Unbounded"; raises NumericalFailure on any other backend report or a
    failed check.
    """
    c = np.asarray(c, dtype=np.float64)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds if bounds is not None else (0, None),
                  method="highs", options=LP_OPTIONS)
    if res.status == 2:
        return LPResult(np.array([]), np.nan, np.array([]), np.array([]), "Infeasible", 0.0)
    if res.status == 3:
        return LPResult(np.array([]), np.nan, np.array([]), np.array([]), "Unbounded", 0.0)
    if res.status != 0:
        raise NumericalFailure(f"LP backend: {res.message}")

    x = np.asarray(res.x)
    mu = np.array([])
    nu = np.array([])
    if A_ub is not None:
        A_ub = np.asarray(A_ub, dtype=np.float64)
        b_ub = np.asarray(b_ub, dtype=np.float64)
        mu = -np.asarray(res.ineqlin.marginals)  # mu >= 0
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=np.float64)
        nu = -np.asarray(res.eqlin.marginals)
    lb, ub = _expand_bounds(bounds, x.size)
    x = _polish_vertex(x, mu, A_ub, b_ub, A_eq, b_eq, res, lb, ub)
    fun = float(c @ x)

    # stationarity: c + A_ub' mu + A_eq' nu - (reduced costs at bounds) = 0
    grad = c.copy()
    cs = 0.0
    dual_scale = float(np.max(np.abs(c))) if c.size else 0.0
    if A_ub is not None:
        slack = b_ub - A_ub @ x
        cs = max(cs, float(np.max(np.abs(mu * slack))) if mu.size else 0.0)
        grad = grad + A_ub.T @ mu
        if mu.size:
            dual_scale = max(dual_scale, float(np.max(np.abs(mu))))
    if A_eq is not None:
        grad = grad + A_eq.T @ nu
        if nu.size:
            dual_scale = max(dual_scale, float(np.max(np.abs(nu))))
    reduced = np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
    grad = grad - reduced
    cs_rel = cs / (1.0 + abs(fun))
    stat_rel = (float(np.max(np.abs(grad))) if grad.size else 0.0) / (1.0 + dual_scale)
    if cs_rel > 1e-8:
        raise NumericalFailure(
            f"complementary-slackness residual {cs_rel:.3e} exceeds 1e-8")
    # degenerate pins inflate duals; stationarity gets a looser sanity gate
    if stat_rel > 1e-6:
        raise NumericalFailure(f"stationarity residual {stat_rel:.3e} exceeds 1e-6")
    return LPResult(x, fun, mu, nu, "Optimal", max(cs_rel, stat_rel))


def _lam_from_vec(vec: np.ndarray, d_v: int) -> DegreeDistribution:
    return DegreeDistribution({j: float(vec[j - 2]) for j in range(2, d_v + 1)})


def _vandermonde(xs: np.ndarray, d_v: int) -> np.ndarray:
    # column j-2 multiplies lam_j, carrying x^{j-1}
    return np.column_stack([xs ** (j - 1) for j in range(2, d_v + 1)])


class _ScanGrid(NamedTuple):
    """SCAN_N points on [lo, xi] with psi and psi' already inverted."""

    xs: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def _scan_grid(rho: DegreeDistribution, ctx: DEContext, lo: float) -> _ScanGrid:
    xs = np.linspace(lo, ctx.xi, SCAN_N)
    return _ScanGrid(xs, *_kernels.transfer_grid(rho.dense, ctx.epsilon, xs,
                                                 ctx.inversion_tol))


def _gap_scan(lam: DegreeDistribution, rho: DegreeDistribution, ctx: DEContext,
              t: float, grid: _ScanGrid) -> tuple[float, float]:
    """Worst violation of psi - lam - t*psi' >= 0 on the grid's [lo, xi], polished.

    Returns (violation, x) where violation = -min gap; positive means the
    constraint fails at x.
    """
    xs = grid.xs
    lo = xs[0]
    gaps = _kernels.transfer_gap(lam.dense, t, *grid)
    k = int(np.argmin(gaps))
    h = (ctx.xi - lo) / (xs.size - 1)
    a = max(lo, xs[k] - 2 * h)
    b = min(ctx.xi, xs[k] + 2 * h)

    def gap_at(x: float) -> float:
        return float(_kernels.transfer_gap_scan(
            lam.dense, rho.dense, ctx.epsilon, t, np.array([x]), ctx.inversion_tol)[0])

    res = minimize_scalar(gap_at, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    if res.fun < gaps[k]:
        return float(-res.fun), float(res.x)
    return float(-gaps[k]), float(xs[k])


def _infeasible(method: str, detail: str, params: dict) -> SolveReport:
    return SolveReport(lam=None, t=None, objective=float("nan"),
                       max_violation=float("nan"), optimality_gap=float("nan"),
                       status="Infeasible", certificate=None, method=method,
                       detail=detail, params=params)


def _dip_points(lam: DegreeDistribution, grid: _ScanGrid, t: float,
                threshold: float, cap: int = 32) -> list[float]:
    """Local minima of the gap below -threshold, worst first, at most cap."""
    gaps = _kernels.transfer_gap(lam.dense, t, *grid)
    mid = gaps[1:-1]
    interior = (mid < gaps[:-2]) & (mid <= gaps[2:]) & (mid < -threshold)
    idx = np.nonzero(interior)[0] + 1
    idx = idx[np.argsort(gaps[idx])][:cap]
    return [float(grid.xs[k]) for k in idx]


def design_rate(
    rho: DegreeDistribution,
    epsilon: float,
    d_v: int,
    grid_n: int = DEFAULT_GRID_N,
    margin: float = DEFAULT_MARGIN,
    extra_points: tuple = (),
    refine_rounds: int = 12,
) -> SolveReport:
    """Maximize sum lam_i/i (hence the rate) under lam <= psi - margin.

    Among rate-optimal vertices the one with the smallest lam_2 is
    returned, which makes the output deterministic when the LP optimum is
    degenerate.
    """
    params = {"rho": rho, "epsilon": epsilon, "d_v": d_v,
              "grid_n": grid_n, "margin": margin}
    if d_v < 2:
        raise ValueError("d_v must be >= 2")
    ctx = DEContext.create(rho, epsilon, eta=epsilon * 1e-6)
    base_xs = ctx.xi * np.arange(1, grid_n + 1, dtype=np.float64) / grid_n
    points = tuple(extra_points)
    inv_degrees = np.array([1.0 / j for j in range(2, d_v + 1)])

    def solve_at(xs: np.ndarray):
        A = _vandermonde(xs, d_v)
        b = psi(ctx, xs) - margin
        eq = np.ones((1, d_v - 1))
        first = lp_solve(-inv_degrees, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0])
        if first.status != "Optimal":
            return first, None
        best = -first.objective
        # tie-break: pin the optimal rate, prefer small lam_2
        c2 = np.zeros(d_v - 1)
        c2[0] = 1.0
        eq2 = np.vstack([eq, inv_degrees])
        second = lp_solve(c2, A_ub=A, b_ub=b, A_eq=eq2, b_eq=[1.0, best])
        vec = second.x if second.status == "Optimal" else first.x
        return first, vec

    grid = None  # built once the grid LP is feasible
    rounds = 0
    while True:
        xs = np.unique(np.concatenate([base_xs, np.asarray(points, dtype=np.float64)])) \
            if points else base_xs
        lp, vec = solve_at(xs)
        if lp.status != "Optimal":
            return _infeasible("rate", f"grid LP is {lp.status}", params)
        lam = _lam_from_vec(vec, d_v)
        if grid is None:
            grid = _scan_grid(rho, ctx, ctx.xi / SCAN_N)
        violation, x_star = _gap_scan(lam, rho, ctx, 0.0, grid)
        if violation <= margin / 2 or rounds >= refine_rounds:
            break
        dips = _dip_points(lam, grid, 0.0, margin / 2)
        points = points + tuple(dips) + (x_star,)
        rounds += 1

    lam = lam.renormalized(clip_tol=1e-8)
    R = ensemble_rate(Ensemble(lam=lam, rho=rho))
    gap = lp.kkt_residual
    status = "Optimal" if violation <= margin and rounds <= refine_rounds else "IterLimit"
    return SolveReport(lam=lam, t=None, objective=R, max_violation=violation,
                       optimality_gap=gap, status=status, certificate=None,
                       method="rate", extra_points=points, rounds=rounds,
                       params=params)


def _utility_lp(ctx: DEContext, xs: np.ndarray, d_v: int, q: float) -> LPResult:
    """Stage-1 LP in (lam, t): maximize t s.t. lam + t*psi' <= psi on xs."""
    V = _vandermonde(xs, d_v)
    pd = psi_deriv(ctx, xs)
    pv = psi(ctx, xs)
    inv_degrees = np.array([1.0 / j for j in range(2, d_v + 1)])
    A = np.vstack([np.column_stack([V, pd]),
                   np.concatenate([-inv_degrees, [0.0]])])
    b = np.concatenate([pv, [-q]])
    eq = np.concatenate([np.ones(d_v - 1), [0.0]]).reshape(1, -1)
    obj = np.zeros(d_v)
    obj[-1] = -1.0
    return lp_solve(obj, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0])


def _tune_zeta_tilde(spec: DesignSpec, ctx: DEContext, q: float) -> float:
    """Pick the left anchor of the step-floor interval by exact decoding cost.

    Anchoring at zeta itself over-weights the smallest abscissas: the
    feasible step near zero behaves like x*(1 - lam_2*eps*rho'(1)), so the
    floor constraint pins lam_2 toward zero and the whole profile flattens
    at a low level, which decodes slowly despite the large worst-case
    step.  Moving the anchor a few multiples of zeta to the right trades
    the left tail for uniformly larger mid-range steps.  Each candidate
    anchor gets a light grid solve; the lowest exact iteration count wins
    (ties: the anchor nearest zeta).
    """
    best_n, best_zt = None, None
    for factor in TUNE_FACTORS:
        zt = factor * ctx.zeta
        if zt >= 0.5 * ctx.xi:
            break
        xs = zt + (ctx.xi - zt) * np.arange(1, TUNE_GRID_N + 1) / TUNE_GRID_N
        try:
            res = _utility_lp(ctx, xs, spec.d_v, q)
        except NumericalFailure:
            continue
        if res.status != "Optimal":
            continue
        lam = _lam_from_vec(res.x[:-1], spec.d_v).renormalized(clip_tol=1e-8)
        n = de_trace(Ensemble(lam, spec.rho), ctx, TUNE_L_MAX).iterations
        if n is None:
            continue
        if best_n is None or n < best_n:
            best_n, best_zt = n, zt
    return 0.5 * ctx.zeta if best_zt is None else best_zt


def design_utility(spec: DesignSpec, extra_points: tuple = (),
                   refine_rounds: int = 12) -> SolveReport:
    """Maximize the uniform step floor t with psi - lam >= t*psi' on a grid.

    Runs the rate-ceiling check first, exchange-refines against the
    continuous interval, then backs the reported t off by a margin-scaled
    amount so the constraint holds strictly everywhere, and attaches a
    certificate for (lam, t*(1-1e-6)) compiled at the spec's series order.
    When the spec leaves zeta_tilde unset the anchor is tuned per
    `_tune_zeta_tilde`.
    """
    spec.validate()
    params = {"spec": spec}
    ceiling = design_rate(spec.rho, spec.epsilon, spec.d_v, spec.grid_n, spec.margin)
    if ceiling.status != "Optimal" or spec.R_d > ceiling.objective + 1e-9:
        got = ceiling.objective if ceiling.status == "Optimal" else float("nan")
        return _infeasible("utility",
                           f"required rate {spec.R_d} exceeds R_max={got:.6f}", params)

    ctx = spec.context()
    d_v = spec.d_v
    q = spec.rho.integral() / (1.0 - spec.R_d)
    zt = (_tune_zeta_tilde(spec, ctx, q) if spec.zeta_tilde is None
          else spec.zeta_tilde)
    params["zeta_tilde"] = zt
    base_xs = zt + (ctx.xi - zt) * np.arange(1, spec.grid_n + 1) / spec.grid_n
    points = tuple(extra_points)
    grid = _scan_grid(spec.rho, ctx, zt)

    rounds = 0
    while True:
        xs = np.unique(np.concatenate([base_xs, np.asarray(points)])) if points else base_xs
        lp = _utility_lp(ctx, xs, d_v, q)
        if lp.status != "Optimal":
            return _infeasible("utility", f"grid LP is {lp.status}", params)
        t_lp = float(lp.x[-1])
        lam = _lam_from_vec(lp.x[:-1], d_v)
        violation, x_star = _gap_scan(lam, spec.rho, ctx, t_lp, grid)
        if violation <= spec.margin / 2 or rounds >= refine_rounds:
            break
        dips = _dip_points(lam, grid, t_lp, spec.margin / 2)
        points = points + tuple(dips) + (x_star,)
        rounds += 1

    # psi' is increasing, so paying 2*margin of gap at the left end pays at
    # least that much everywhere; the backed-off t then clears the residual
    # scan violation (<= margin/2) with room for the certificate's own
    # (1 - 1e-6) relief.
    backoff = 2.0 * spec.margin / float(psi_deriv(ctx, zt))
    t = max(t_lp - backoff, 0.0)
    lam = lam.renormalized(clip_tol=1e-8)
    violation, _ = _gap_scan(lam, spec.rho, ctx, t, grid)
    T = taylor_for(spec.rho, spec.epsilon, spec.taylor_order)
    cert = certify(compile_constraint(lam, t * (1.0 - 1e-6), T, zt, ctx.xi))
    status = "Optimal" if violation <= spec.margin else "IterLimit"
    return SolveReport(lam=lam, t=t, objective=t, max_violation=violation,
                       optimality_gap=backoff + lp.kkt_residual, status=status,
                       certificate=cert, method="utility", extra_points=points,
                       rounds=rounds, params=params)


def _phase_one(xs, psi_vals, d_v, q) -> tuple[Optional[np.ndarray], float]:
    """LP start point with uniformly positive slacks; returns (lam, slack)."""
    n = xs.size
    A_gap = np.column_stack([_vandermonde(xs, d_v), np.ones(n)])
    rows = [A_gap]
    rhs = [psi_vals]
    for j in range(d_v - 1):
        row = np.zeros(d_v)
        row[j] = -1.0
        row[-1] = 1e-2
        rows.append(row.reshape(1, -1))
        rhs.append(np.array([0.0]))
    rate_row = np.concatenate([-np.array([1.0 / j for j in range(2, d_v + 1)]), [1e-2]])
    rows.append(rate_row.reshape(1, -1))
    rhs.append(np.array([-q]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    eq = np.concatenate([np.ones(d_v - 1), [0.0]]).reshape(1, -1)
    obj = np.zeros(d_v)
    obj[-1] = -1.0
    bounds = [(0, None)] * (d_v - 1) + [(None, None)]
    res = lp_solve(obj, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0], bounds=bounds)
    if res.status != "Optimal":
        return None, -np.inf
    return res.x[:-1], float(res.x[-1])


def design_min_iterations(spec: DesignSpec, max_outer: int = 16,
                          max_newton: int = 100) -> SolveReport:
    """Minimize the discretized iteration integral by log-barrier Newton.

    The objective sum w_i/(psi_i - lam(x_i)) on the midpoint grid of
    [zeta, xi] is convex and already penalizes the curve constraint; the
    barrier adds the coefficient simplex and the rate floor.  The duality
    gap m/tau certifies optimality to spec.tol.
    """
    spec.validate()
    params = {"spec": spec}
    ceiling = design_rate(spec.rho, spec.epsilon, spec.d_v, spec.grid_n, spec.margin)
    if ceiling.status != "Optimal" or spec.R_d > ceiling.objective + 1e-9:
        got = ceiling.objective if ceiling.status == "Optimal" else float("nan")
        return _infeasible("min-iter",
                           f"required rate {spec.R_d} exceeds R_max={got:.6f}", params)

    ctx = spec.context()
    d_v = spec.d_v
    n = spec.grid_n
    dx = (ctx.xi - ctx.zeta) / n
    xs = ctx.zeta + dx * (np.arange(n) + 0.5)
    psi_vals = psi(ctx, xs)
    w = psi_deriv(ctx, xs) * dx
    X = _vandermonde(xs, d_v)
    inv_degrees = np.array([1.0 / j for j in range(2, d_v + 1)])
    q = spec.rho.integral() / (1.0 - spec.R_d)

    def objective(v: np.ndarray) -> float:
        g = psi_vals - X @ v
        if g.min() <= 0.0:
            return np.inf
        return float(np.sum(w / g))

    v0, slack = _phase_one(xs, psi_vals, d_v, q)
    if v0 is None:
        return _infeasible("min-iter", "no feasible start point", params)
    if slack <= 1e-10 or spec.R_d >= ceiling.objective - 1e-9:
        # rate floor equals the ceiling: the feasible set has no interior
        # (phase one may still see a sliver because its midpoint grid is
        # laxer than the ceiling LP's), so the rate-maximal design is the
        # answer
        lam = ceiling.lam
        vec = np.array([lam.coeff(j) for j in range(2, d_v + 1)])
        obj = objective(vec)
        violation, _ = _gap_scan(lam, spec.rho, ctx, 0.0,
                                 _scan_grid(spec.rho, ctx, ctx.zeta))
        return SolveReport(lam=lam, t=None, objective=obj, max_violation=violation,
                           optimality_gap=float("nan"), status="Optimal",
                           certificate=None, method="min-iter",
                           detail="rate floor leaves no interior; returned the "
                                  "rate-maximal design", params=params)

    m_ineq = (d_v - 1) + 1
    v = v0.copy()
    tau = 1.0
    converged = False
    for _ in range(max_outer):
        for _ in range(max_newton):
            g = psi_vals - X @ v
            s = float(inv_degrees @ v - q)
            inv_g2 = w / g**2
            grad = tau * (X.T @ inv_g2) - 1.0 / v - inv_degrees / s
            H = (tau * 2.0) * (X.T * (w / g**3)) @ X
            H += np.diag(1.0 / v**2)
            H += np.outer(inv_degrees, inv_degrees) / s**2
            kkt = np.zeros((d_v, d_v))
            kkt[:-1, :-1] = H
            kkt[:-1, -1] = 1.0
            kkt[-1, :-1] = 1.0
            rhs = np.zeros(d_v)
            rhs[:-1] = -grad
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"barrier KKT solve failed: {exc}") from exc
            step = sol[:-1]
            decrement2 = float(step @ H @ step)
            if decrement2 / 2.0 <= 1e-10:
                break

            def barrier_value(vv: np.ndarray) -> float:
                gg = psi_vals - X @ vv
                ss = inv_degrees @ vv - q
                if gg.min() <= 0.0 or vv.min() <= 0.0 or ss <= 0.0:
                    return np.inf
                return float(tau * np.sum(w / gg) - np.sum(np.log(vv)) - np.log(ss))

            base = barrier_value(v)
            slope = float(grad @ step)
            alpha = 1.0
            while alpha > 1e-12:
                trial = v + alpha * step
                if barrier_value(trial) <= base + 0.25 * alpha * slope:
                    break
                alpha *= 0.5
            if alpha <= 1e-12:
                break
            v = v + alpha * step
        if m_ineq / tau <= spec.tol:
            converged = True
            break
        tau *= 10.0

    lam = _lam_from_vec(v, d_v).renormalized(clip_tol=1e-8)
    obj = objective(np.array([lam.coeff(j) for j in range(2, d_v + 1)]))
    violation, _ = _gap_scan(lam, spec.rho, ctx, 0.0, _scan_grid(spec.rho, ctx, ctx.zeta))
    gap = m_ineq / tau
    status = "Optimal" if converged and violation <= spec.margin else "IterLimit"
    return SolveReport(lam=lam, t=None, objective=obj, max_violation=violation,
                       optimality_gap=gap, status=status, certificate=None,
                       method="min-iter", params=params)


def refine_exchange(candidate: SolveReport, max_rounds: int = 12) -> SolveReport:
    """Re-run a grid designer, growing its grid until the continuous
    constraint holds to margin; candidates already clean return unchanged."""
    if candidate.status != "Optimal" and candidate.status != "IterLimit":
        return candidate
    if candidate.method == "rate":
        p = candidate.params
        if candidate.max_violation <= p["margin"]:
            return candidate
        return design_rate(p["rho"], p["epsilon"], p["d_v"], p["grid_n"], p["margin"],
                           extra_points=candidate.extra_points,
                           refine_rounds=max_rounds)
    if candidate.method == "utility":
        spec = candidate.params["spec"]
        if candidate.max_violation <= spec.margin:
            return candidate
        return design_utility(spec, extra_points=candidate.extra_points,
                              refine_rounds=max_rounds)
    return candidate
