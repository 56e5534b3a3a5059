"""Degree-distribution designers.

Three entry points over a common toolkit:

* `design_rate` - maximize the code rate for fixed rho, eps, d_v.  Linear
  program over lam with the curve constraint lam(x) <= psi(x) - MARGIN on
  a grid uniform in x.  The `sip_compile` certificate of psi - lam >= 0
  on [zeta, xi] refines and judges it: each witness of a failure becomes
  one more row, and the last certificate gives "Optimal" or
  "CertificateFail".
* `design_utility` - maximize the worst-case decoding step size t subject
  to psi - lam >= t*psi' on [zeta_tilde, xi] and a rate floor.  Linear
  program in (lam, t) whose rows are the Bernstein coefficients of the
  `sip_compile` step polynomial on equal pieces, so its optimum meets the
  constraint everywhere; it has no grid.  The verdict is the certificate
  of the exact constraint at t*(1 - 1e-6): "Optimal" if it passes,
  "CertificateFail" if not.  An unset zeta_tilde is tuned by exact
  decoding cost.
* `design_min_iterations` - minimize the iteration-count integral
  int_eta^eps dP/g(P), g(P) = P - eps*lam(1 - rho(1 - P)), by the log-P
  midpoint rule of `estimators.code_estimates`, so the objective is the
  approx_N that `evaluate` reports.  In curve terms each node P is a row
  at x = 1 - rho(1 - P) with psi = P/eps and weight psi' dx = P*du/eps.
  The objective is convex in lam and blows up as lam touches psi, so a
  log-barrier Newton method over the simplex-and-ratefloor feasible set
  converges with a clean duality-gap bound; below `BARRIER_TOL` the
  certificate of psi - lam >= 0 on [zeta, xi] is the verdict.  The node
  matrix X has columns x^1 .. x^{d_v-1}, so its Hessian term
  X'diag(c)X is the Hankel matrix of the moments sum c_i*x_i^p,
  p = 2 .. 2(d_v-1): a Newton step costs one grid_n x 2(d_v-1) product.
  The barrier weight tau starts at `BARRIER_TAU0` = 1e3 and grows x10
  per round up to the first weight whose gap m/tau (m = d_v) is at most
  `BARRIER_TOL`: 1e6 for 10 < d_v <= 100.  There is no round cap; only a
  round that runs out its Newton steps makes the design "IterLimit".

Neither iteration designer designs the rate ceiling first: its own LP or
phase one, which carries the rate floor, decides whether R_d is reachable,
and its own certificate decides its status.  Only a failed program designs
the ceiling, to say why (`_explain`); a floor at R_max is no special case.

Constraining psi - lam > 0 on (zeta, xi] is exactly the
successful-decoding condition on (eta, eps], because
eps*(psi - lam) = g(P) at x = 1 - rho(1 - P).  LP solves go through
`lp_solve`, which solves each LP (all have inequality rows) by row
generation: a 4096-row design LP, of which a handful of rows are active,
converges in two or three solves of at most a few hundred rows, and each
zeta_tilde-tuning LP after the first starts from the last one's working
set and usually needs one.
`grid_n` sets the rate LP's rows, uniform in x, and the min-iter nodes.
Every "Optimal" report carries a passed certificate.  HiGHS, through
scipy.optimize, is imported on the first LP (`linprog`), so a command
that solves none never loads scipy.optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .de_engine import DEContext, de_trace, psi
from .ensemble import DegreeDistribution, Ensemble, rate as ensemble_rate
from .errors import DomainError, NumericalFailure
from .sip_compile import NonnegCertificate, certify, compile_constraint, step_rows

DEFAULT_GRID_N = 4096
MARGIN = 1e-7  # curve margin of the rate LP's grid rows; Bernstein rows need none
REFINE_ROUNDS = 12  # rate LP re-solves with a failed certificate's witness as a row
BARRIER_TAU0 = 1e3  # first barrier weight
BARRIER_MAX_NEWTON = 100  # Newton steps per barrier weight
BARRIER_TOL = 1e-4  # duality gap at which the min-iteration barrier stops
TUNE_FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
TUNE_L_MAX = 5000
FLOOR_RELIEF = 1e-13  # relative raise of the utility LP's rate floor (`design_utility`)
WORKING_SET_N = 64  # `lp_solve`'s seed rows, and most rows added per round
# HiGHS settings for every LP.  Presolve is off because it dominated every
# design LP: one 4096-row rate LP took 4.9 s with it and 0.047 s without,
# reaching the same vertex and objective.
LP_OPTIONS = {"presolve": False,
              "primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _check_grid_n(grid_n: int) -> None:
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")


@dataclass(frozen=True)
class DesignSpec:
    """Parameters shared by the iteration-oriented designers."""

    rho: DegreeDistribution
    epsilon: float
    eta: float
    R_d: float
    d_v: int
    zeta_tilde: Optional[float] = None
    grid_n: int = DEFAULT_GRID_N  # min-iter nodes and rate rows; a utility design has none

    def validate(self) -> None:
        if not 0.0 < self.eta < self.epsilon < 1.0:
            raise DomainError(self.eta, 0.0, self.epsilon, what="eta")
        if self.d_v < 2:
            raise ValueError("d_v must be >= 2")
        _check_grid_n(self.grid_n)
        if not 0.0 < self.R_d < 1.0:
            raise ValueError(f"R_d must lie in (0, 1), got {self.R_d}")
        if self.zeta_tilde is not None:
            ctx = DEContext.create(self.rho, self.epsilon, self.eta)
            if not 0.0 <= self.zeta_tilde < ctx.xi:
                raise DomainError(self.zeta_tilde, 0.0, ctx.xi, what="zeta_tilde")

    def context(self) -> DEContext:
        return DEContext.create(self.rho, self.epsilon, self.eta)


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
    detail: str = ""  # notes, and the cause of any status but Optimal
    rounds: int = 0  # the rate design's certificate re-solves; 0 for the others
    zeta_tilde: Optional[float] = None  # the utility LP's anchor, once chosen

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
    working_set: np.ndarray  # the A_ub rows HiGHS saw last


def _expand_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
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
    if float(np.min(b_ub - A_ub @ x_new)) < -1e-9:
        return x
    if np.any(x_new < lb - 1e-9) or np.any(x_new > ub + 1e-9):
        return x
    return x_new


def _working_set_solve(c, A_ub, b_ub, A_eq, b_eq, bounds, start_rows):
    """HiGHS on a working set of the rows of A_ub, grown until x meets all.

    Returns the last backend result, its row duals padded with zeros off
    the working set, and the working set's row indices.  An infeasible
    working set is a relaxation of the full LP, so it is returned as it
    stands; an unbounded one is widened to every row and solved again, as
    is one HiGHS reports as unbounded or infeasible.
    """
    m = b_ub.size
    active = np.zeros(m, dtype=bool)
    # evenly spaced seed rows; every row when there are no more than that
    active[np.round(np.linspace(0, m - 1, WORKING_SET_N)).astype(np.intp)] = True
    if start_rows is not None:
        active[start_rows] = True
    tol = LP_OPTIONS["primal_feasibility_tolerance"]
    while True:
        rows = np.flatnonzero(active)
        res = linprog(c, A_ub=A_ub[rows], b_ub=b_ub[rows], A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options=LP_OPTIONS)
        if res.status in (3, 4) and rows.size < m:
            active[:] = True
            continue
        if res.status != 0:
            return res, None, rows
        excess = A_ub @ res.x - b_ub
        excess[active] = -np.inf
        new = np.flatnonzero(excess > tol)
        if new.size == 0:
            mu = np.zeros(m)
            mu[rows] = -np.asarray(res.ineqlin.marginals)  # mu >= 0
            return res, mu, rows
        active[new[np.argsort(-excess[new], kind="stable")[:WORKING_SET_N]]] = True


def lp_solve(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=None,
             start_rows=None) -> LPResult:
    """Minimize c @ x with HiGHS by row generation and verify the KKT residual.

    Every LP here has inequality rows A_ub @ x <= b_ub, so they are
    required; equality rows and `bounds` (default x >= 0) are optional.
    HiGHS runs with `LP_OPTIONS` on a working set of the rows of A_ub:
    `WORKING_SET_N` evenly spaced rows (all of them when there are no
    more) and the indices `start_rows`, then, after each solve, up to
    `WORKING_SET_N` of the rows that x violates most by more than the
    primal feasibility tolerance, until x violates none.  The LP is
    unchanged, and so is its optimum; only the rows HiGHS factors shrink.
    The returned vertex is polished onto its active set over all the rows,
    then checked against all of them: complementary slackness at 1e-8 and
    stationarity at 1e-6 (relative to the dual magnitude); `dual_ub` is
    zero off the working set, and `working_set` lists it, ready to start a
    related LP with the same rows.
    Returns status "Optimal", "Infeasible", or "Unbounded"; raises
    NumericalFailure on any other backend report or a failed check.
    """
    c = np.asarray(c, dtype=np.float64)
    A_ub = np.asarray(A_ub, dtype=np.float64)
    b_ub = np.asarray(b_ub, dtype=np.float64)
    bounds = bounds if bounds is not None else (0, None)
    nu = np.array([])
    res, mu, rows = _working_set_solve(c, A_ub, b_ub, A_eq, b_eq, bounds, start_rows)
    if res.status in (2, 3):
        return LPResult(np.array([]), np.nan, np.array([]), np.array([]),
                        {2: "Infeasible", 3: "Unbounded"}[res.status], 0.0, rows)
    if res.status != 0:
        raise NumericalFailure(f"LP backend: {res.message}")

    x = np.asarray(res.x)
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=np.float64)
        nu = -np.asarray(res.eqlin.marginals)
    lb, ub = _expand_bounds(bounds, x.size)
    x = _polish_vertex(x, mu, A_ub, b_ub, A_eq, b_eq, res, lb, ub)
    fun = float(c @ x)

    # stationarity: c + A_ub' mu + A_eq' nu - (reduced costs at bounds) = 0
    cs = float(np.max(np.abs(mu * (b_ub - A_ub @ x))))
    grad = c + A_ub.T @ mu
    dual_scale = max(float(np.max(np.abs(c))), float(np.max(np.abs(mu))))
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
    return LPResult(x, fun, mu, nu, "Optimal", max(cs_rel, stat_rel), rows)


def _lam_from_vec(vec: np.ndarray, d_v: int) -> DegreeDistribution:
    return DegreeDistribution({j: float(vec[j - 2]) for j in range(2, d_v + 1)})


def _vandermonde(xs: np.ndarray, d_v: int) -> np.ndarray:
    # column j-2 multiplies lam_j, carrying x^{j-1}
    return np.column_stack([xs ** (j - 1) for j in range(2, d_v + 1)])


def _infeasible(method: str, detail: str, zeta_tilde: Optional[float] = None) -> SolveReport:
    return SolveReport(lam=None, t=None, objective=float("nan"),
                       max_violation=float("nan"), optimality_gap=float("nan"),
                       status="Infeasible", certificate=None, method=method,
                       detail=detail, zeta_tilde=zeta_tilde)


def _join(*notes: str) -> str:
    return "; ".join(n for n in notes if n)


def _explain(spec: DesignSpec, note: str) -> str:
    """Why an iteration design failed, told by the rate-maximal design for `spec`.

    A failed ceiling, or one below spec.R_d, is the cause; otherwise `note`
    is, led by the ceiling's own note when it has one.
    """
    ceiling = design_rate(spec.rho, spec.epsilon, spec.d_v, spec.grid_n)
    if ceiling.status != "Optimal":
        return _join(f"rate ceiling failed: {ceiling.status}", ceiling.detail)
    lead = f"rate ceiling: {ceiling.detail}" if ceiling.detail else ""
    if spec.R_d > ceiling.objective + 1e-9:
        return _join(lead, f"required rate {spec.R_d} exceeds R_max={ceiling.objective:.6f}")
    return _join(lead, note)


def _reach_note(xs: np.ndarray, b: np.ndarray, epsilon: float, d_v: int) -> str:
    """Why the rate LP's rows lam(x) <= b at `xs` admit no lam, when they show it.

    Over the simplex the least lam(x) at every x is x^{d_v-1}, all the
    weight on degree d_v, so the rows admit no lam exactly when
    x^{d_v-1} > b at some row; the first such x is named.
    """
    over = np.flatnonzero(xs ** (d_v - 1) > b)
    if over.size == 0:
        return f"no row excludes lam = x^{d_v - 1}; this detail cannot tell why"
    return (f"eps {epsilon} exceeds what degree <= {d_v} reaches: even lam = x^{d_v - 1} "
            f"exceeds psi - MARGIN at x={xs[over[0]]:.6g}")


def _verdict(cert: NonnegCertificate) -> tuple[str, str]:
    """The status a formed design's certificate gives it, and the cause of a fail."""
    if cert.passed:
        return "Optimal", ""
    return "CertificateFail", f"certificate margin {cert.margin:.3e} at x={cert.witness!r}"


def design_rate(
    rho: DegreeDistribution,
    epsilon: float,
    d_v: int,
    grid_n: int = DEFAULT_GRID_N,
) -> SolveReport:
    """Maximize sum lam_i/i (hence the rate) under lam <= psi - `MARGIN`.

    The rows sit at `grid_n` points uniform in x on (0, xi].  Each
    renormalized design is certified, psi - lam >= 0 on [zeta, xi] with
    eta = eps*1e-6; while the certificate fails, its witness joins the
    rows and the LP is solved again, at most `REFINE_ROUNDS` times and
    never for a witness that is already a row.  The last certificate is
    the verdict: "Optimal" if it passes, "CertificateFail" (lam kept) if
    not; max_violation is minus its margin and `rounds` counts the
    re-solves.  Among rate-optimal vertices the one with the smallest
    lam_2 is returned, which makes the output deterministic when the LP
    optimum is degenerate.  When that tie-break LP fails its KKT check,
    the first LP's vertex, which passed its own, is kept and `detail`
    says so.  A design whose rate is <= 0 is no code: it is reported
    Infeasible, with the rate in `detail`.  An infeasible grid LP is
    reported with the first row where even lam = x^{d_v-1} exceeds
    psi - MARGIN (`_reach_note`).
    """
    if d_v < 2:
        raise ValueError("d_v must be >= 2")
    _check_grid_n(grid_n)
    ctx = DEContext.create(rho, epsilon, eta=epsilon * 1e-6)
    xs = ctx.xi * np.arange(1, grid_n + 1, dtype=np.float64) / grid_n
    inv_degrees = np.array([1.0 / j for j in range(2, d_v + 1)])
    eq = np.ones((1, d_v - 1))
    c2 = np.zeros(d_v - 1)
    c2[0] = 1.0
    A = _vandermonde(xs, d_v)
    b = psi(ctx, xs) - MARGIN
    rounds = 0
    while True:
        lp = lp_solve(-inv_degrees, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0])
        if lp.status != "Optimal":
            return _infeasible("rate", f"grid LP is {lp.status}: "
                                       f"{_reach_note(xs, b, epsilon, d_v)}")
        # tie-break: pin the optimal rate, prefer small lam_2
        vec, note = lp.x, ""
        try:
            second = lp_solve(c2, A_ub=A, b_ub=b, A_eq=np.vstack([eq, inv_degrees]),
                              b_eq=[1.0, -lp.objective])
        except NumericalFailure as exc:
            note = f"tie-break LP rejected ({exc}); kept the rate-optimal vertex"
        else:
            if second.status == "Optimal":
                vec = second.x
        lam = _lam_from_vec(vec, d_v).renormalized()
        cert = certify(compile_constraint(lam, 0.0, rho, epsilon, ctx.zeta, ctx.xi))
        w = cert.witness
        if cert.passed or rounds >= REFINE_ROUNDS or w in xs:
            break
        # the witness joins the sorted rows; no other row changes
        k = int(np.searchsorted(xs, w))
        xs = np.insert(xs, k, w)
        A = np.insert(A, k, _vandermonde(np.array([w]), d_v), axis=0)
        b = np.insert(b, k, psi(ctx, w) - MARGIN)
        rounds += 1
    rate = ensemble_rate(Ensemble(lam=lam, rho=rho))
    if rate <= 0.0:
        return _infeasible("rate", f"the rate-maximal design has rate {rate:.6g} <= 0")
    status, why = _verdict(cert)
    return SolveReport(lam=lam, t=None, objective=rate,
                       max_violation=-cert.margin, optimality_gap=lp.kkt_residual,
                       status=status, certificate=cert, method="rate",
                       detail=_join(note, why), rounds=rounds)


def _utility_lp(spec: DesignSpec, zt: float, halvings: int, q: float,
                start_rows: Optional[np.ndarray]) -> LPResult:
    """Maximize t s.t. the `step_rows` on 2^halvings pieces and the rate floor, the last row."""
    A, b = step_rows(spec.rho, spec.epsilon, spec.d_v, zt, halvings)
    floor = np.append(-1.0 / np.arange(2, spec.d_v + 1), 0.0)
    return lp_solve(np.append(np.zeros(spec.d_v - 1), -1.0), A_ub=np.vstack([A, floor]),
                    b_ub=np.append(b, -q), A_eq=np.append(np.ones(spec.d_v - 1), 0.0)[None, :],
                    b_eq=[1.0], start_rows=start_rows)


def _tune_zeta_tilde(spec: DesignSpec, ctx: DEContext, q: float) -> float:
    """Pick the left anchor of the step-floor interval by exact decoding cost.

    Anchoring at zeta itself over-weights the smallest abscissas: the
    feasible step near zero behaves like x*(1 - lam_2*eps*rho'(1)), so the
    floor constraint pins lam_2 toward zero and the whole profile flattens
    at a low level, which decodes slowly despite the large worst-case
    step.  Moving the anchor a few multiples of zeta to the right trades
    the left tail for uniformly larger mid-range steps.  Each candidate
    gets the design's LP on 2^3 pieces, warm from the last Optimal one's
    working set; the lowest exact iteration count wins (ties: the anchor
    nearest zeta; 0.5*zeta if none decodes).  The pieces bound P on all of
    [zeta_tilde, xi], so unlike z-uniform grids they keep 8*zeta for Fig. 2.
    """
    best_n, best_zt, rows = None, 0.5 * ctx.zeta, None
    for zt in [f * ctx.zeta for f in TUNE_FACTORS if f * ctx.zeta < 0.5 * ctx.xi]:
        try:
            res = _utility_lp(spec, zt, 3, q, start_rows=rows)
        except NumericalFailure:
            continue
        if res.status != "Optimal":
            continue
        rows = res.working_set
        lam = _lam_from_vec(res.x[:-1], spec.d_v).renormalized()
        n = de_trace(Ensemble(lam, spec.rho), ctx, TUNE_L_MAX).iterations
        if n is not None and (best_n is None or n < best_n):
            best_n, best_zt = n, zt
    return best_zt


def design_utility(spec: DesignSpec) -> SolveReport:
    """Maximize the uniform step floor t with psi - lam >= t*psi' on [zeta_tilde, xi].

    The LP's rows are the step polynomial's Bernstein coefficients on 2^3
    equal pieces (`sip_compile.step_rows`), so its optimum meets the
    constraint everywhere and t needs no backoff; only an infeasible LP
    doubles the pieces, up to 2^8.  The rate floor carries a relative
    `FLOOR_RELIEF`: sum lam_j/j may miss it by 1e-13 relative (~450 ulps;
    the polish and renormalization lose a few) with the rate still >= R_d,
    and the floor sits at most (1 - R_d)*1e-13 above R_d.  A tuned anchor
    is solved again cold.  The certificate of (lam, t*(1 - 1e-6)) gives
    "Optimal" or "CertificateFail" (lam, t kept; max_violation = -margin);
    an LP infeasible on 2^8 pieces is "Infeasible", told by `_explain`.
    """
    spec.validate()
    ctx = spec.context()
    q = spec.rho.integral() / (1.0 - spec.R_d) * (1.0 + FLOOR_RELIEF)
    zt = spec.zeta_tilde if spec.zeta_tilde is not None else _tune_zeta_tilde(spec, ctx, q)
    for halvings in range(3, 9):
        lp = _utility_lp(spec, zt, halvings, q, start_rows=None)
        if lp.status == "Optimal":
            break
    else:
        return _infeasible("utility", _explain(
            spec, f"Bernstein LP is {lp.status} on 256 pieces"), zeta_tilde=zt)
    t = float(lp.x[-1])
    lam = _lam_from_vec(lp.x[:-1], spec.d_v).renormalized()
    cert = certify(compile_constraint(lam, t * (1.0 - 1e-6), spec.rho, spec.epsilon,
                                      zt, ctx.xi))
    status, why = _verdict(cert)
    return SolveReport(lam=lam, t=t, objective=t, max_violation=-cert.margin,
                       optimality_gap=lp.kkt_residual, status=status, certificate=cert,
                       method="utility", detail=why, zeta_tilde=zt)


def _phase_one(X, psi_vals, q) -> tuple[Optional[np.ndarray], float]:
    """LP start point with uniformly positive slacks; returns (lam, slack).

    X is the barrier's node matrix, x^1 .. x^{d_v-1} at each node.
    """
    n, d_v = X.shape[0], X.shape[1] + 1
    A_gap = np.column_stack([X, np.ones(n)])
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


def _hankel(n: int) -> np.ndarray:
    """Index of X'diag(c)X, n x n, into the moments m[p - 1] = sum_i c_i*x_i^p.

    Column k of X carries x^{k+1}, so entry (k, l) is the moment of
    x^{k+l+2}; p runs over 2 .. 2n.
    """
    return np.add.outer(np.arange(n), np.arange(n)) + 1


def _barrier(v, M, psi_vals, w, inv_degrees, q) -> tuple[np.ndarray, float, str, float]:
    """Barrier Newton from the interior point v.

    Returns (v, duality gap, stop, decrement2): how the last round ended
    ("centred" at its Newton-decrement stop lambda^2/2 <= 1e-10, "stalled"
    with alpha <= 1e-12, or "capped" after `BARRIER_MAX_NEWTON` steps),
    and that round's last lambda^2.  Only a centred point carries the gap
    m/tau as a bound.

    M holds x^1 .. x^{2(d_v-1)} at the nodes, and its first d_v - 1
    columns are X.  With c = 2*tau*w/g^3 the Hessian X'diag(c)X is the
    Hankel matrix of the moments sum c_i*x_i^p, p = 2 .. 2(d_v-1)
    (`_hankel`), so one product M'[w/g^2, c] gives the gradient and the
    Hessian.  tau starts at `BARRIER_TAU0` = 1e3 and grows x10 per round;
    the last round is the first whose gap m/tau is <= `BARRIER_TOL`, so
    the returned gap always is (tau = 1e6 for 10 < m <= 100; from tau = 1,
    `reproduce all` took 727 Newton steps, not 492).  A
    trial point is g - alpha*(X @ step), one matvec per Newton step, and
    alpha halves until the point is interior (g, v and the rate slack
    > 0, else the change reads +inf) and meets the Armijo rule.  The
    change of the barrier is summed term by term from the step, never as
    a difference of two values near 1e7: that difference is rounding
    noise once the decrement is near 1e-8, and the line search then
    stalled on the last rounds for up to 100 steps.
    """
    n = v.size
    m_ineq = n + 1  # the coefficients and the rate floor
    X = M[:, :n]
    hankel = _hankel(n)
    kkt = np.ones((n + 1, n + 1))
    kkt[-1, -1] = 0.0
    rhs = np.zeros(n + 1)
    tau = BARRIER_TAU0
    while True:
        stop = "capped"
        for _ in range(BARRIER_MAX_NEWTON):
            g = psi_vals - X @ v
            s = float(inv_degrees @ v - q)
            moments = M.T @ np.column_stack([w / g**2, (2.0 * tau) * (w / g**3)])
            grad = tau * moments[:n, 0] - 1.0 / v - inv_degrees / s
            H = moments[hankel, 1]
            H += np.diag(1.0 / v**2)
            H += np.outer(inv_degrees, inv_degrees) / s**2
            kkt[:-1, :-1] = H
            rhs[:-1] = -grad
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"barrier KKT solve failed: {exc}") from exc
            step = sol[:-1]
            decrement2 = float(step @ H @ step)
            if decrement2 / 2.0 <= 1e-10:
                stop = "centred"
                break
            x_step = X @ step
            w_step = w * x_step
            v_step = step / v
            s_step = float(inv_degrees @ step) / s

            def barrier_change(alpha: float) -> float:
                # f(v + alpha*step) - f(v), term by term.  The rate slack is a
                # small difference of O(1) sums, so its log ratio comes from
                # the step; the point must also be interior as the next
                # Newton step computes it, v + alpha*step and its slack.
                g_t = g - alpha * x_step
                v_t = v + alpha * step
                if (g_t.min() <= 0.0 or v_t.min() <= 0.0 or float(inv_degrees @ v_t - q) <= 0.0
                        or (alpha * v_step).min() <= -1.0 or alpha * s_step <= -1.0):
                    return np.inf
                return float(alpha * tau * np.sum(w_step / (g * g_t))
                             - np.sum(np.log1p(alpha * v_step)) - np.log1p(alpha * s_step))

            slope = float(grad @ step)
            alpha = 1.0
            while alpha > 1e-12:
                if barrier_change(alpha) <= 0.25 * alpha * slope:
                    break
                alpha *= 0.5
            if alpha <= 1e-12:
                stop = "stalled"
                break
            v = v + alpha * step
        gap = m_ineq / tau  # duality gap of the point centred at this tau
        if gap <= BARRIER_TOL:
            return v, gap, stop, decrement2
        tau *= 10.0


def design_min_iterations(spec: DesignSpec) -> SolveReport:
    """Minimize the discretized iteration integral by log-barrier Newton.

    The objective sum w_i/(psi_i - lam(x_i)) over the `grid_n` log-P
    midpoint nodes P_i of [eta, eps], with x_i = 1 - rho(1 - P_i),
    psi_i = P_i/eps and w_i = P_i*du/eps, is sum P_i*du/g(P_i): the
    approx_N of `estimators.code_estimates` at grid_n nodes.  It is convex
    and already penalizes the curve constraint; the barrier adds the
    coefficient simplex and the rate floor.  A phase-one LP that finds no
    start point with positive slack makes the design "Infeasible", and only
    then is the rate ceiling designed, to say why (`_explain`).  The
    barrier's last round is the first whose duality gap m/tau is at most
    `BARRIER_TOL`, and `optimality_gap` is that gap (m = d_v: 16e-6 at
    d_v 16).  A last round that ran out its Newton steps is "IterLimit",
    since its gap is then no bound; otherwise the certificate of
    psi - lam >= 0 on [zeta, xi] gives "Optimal" or "CertificateFail"
    (lam kept).  Either way the certificate rides along.  A last round
    whose line search stalled keeps its status, and `detail` gives its
    Newton decrement.  max_violation is -certificate.margin.
    """
    spec.validate()
    ctx = spec.context()
    d_v = spec.d_v
    ps, du = _kernels.log_p_nodes(ctx.eta, ctx.epsilon, spec.grid_n)
    xs = 1.0 - spec.rho.eval(1.0 - ps)
    psi_vals = ps / ctx.epsilon
    w = ps * du / ctx.epsilon
    M = _vandermonde(xs, 2 * d_v - 1)  # x^1 .. x^{2(d_v-1)}; X is its first d_v - 1
    X = M[:, :d_v - 1]
    inv_degrees = np.array([1.0 / j for j in range(2, d_v + 1)])
    q = spec.rho.integral() / (1.0 - spec.R_d)

    v0, slack = _phase_one(X, psi_vals, q)
    if slack <= 1e-10:  # -inf when phase one finds no start point at all
        return _infeasible("min-iter", _explain(
            spec, f"no interior start point (phase-one slack {slack:.3e})"))
    v, gap, stop, decrement2 = _barrier(v0, M, psi_vals, w, inv_degrees, q)
    lam = _lam_from_vec(v, d_v).renormalized()

    g = psi_vals - X @ np.array([lam.coeff(j) for j in range(2, d_v + 1)])
    obj = float(np.sum(w / g)) if g.min() > 0.0 else np.inf
    cert = certify(compile_constraint(lam, 0.0, spec.rho, ctx.epsilon, ctx.zeta, ctx.xi))
    status, why = _verdict(cert)
    if stop == "capped":
        status = "IterLimit"
        why = _join(f"last barrier round ran out its BARRIER_MAX_NEWTON={BARRIER_MAX_NEWTON} "
                    f"Newton steps at decrement lambda^2 {decrement2:.3e}", why)
    elif stop == "stalled":
        why = _join(why, f"last barrier round stalled at alpha <= 1e-12 with Newton "
                         f"decrement lambda^2 {decrement2:.3e}")
    return SolveReport(lam=lam, t=None, objective=obj, max_violation=-cert.margin,
                       optimality_gap=gap, status=status, certificate=cert,
                       method="min-iter", detail=why)
