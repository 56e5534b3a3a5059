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
  The objective is convex in lam and blows up as lam touches psi, so it
  is minimized over the coefficient simplex and the rate floor by a
  null-space active-set Newton method (Gill, Murray & Wright, Practical
  Optimization, 1981; Nocedal & Wright, 2006, sec. 16.5) from the vertex
  of the utility LP anchored at zeta, whose psi - lam >= t*psi' holds on
  all of [zeta, xi] and so at every node.  Unused degrees are exact
  zeros, and `optimality_gap` is the KKT residual, at most `KKT_TOL`; below it the
  certificate of psi - lam >= 0 on [zeta, xi] is the verdict.  The node
  matrix X has columns x^1 .. x^{d_v-1}, so its Hessian term
  X'diag(c)X is the Hankel matrix of the moments sum c_i*x_i^p,
  p = 2 .. 2(d_v-1): a Newton step costs one grid_n x 2(d_v-1) product.
  A design that runs out its `MAX_NEWTON_STEPS` steps, or whose line
  search stalls, is "IterLimit".

Neither iteration designer designs the rate ceiling first: the Bernstein
LP they share, which carries the rate floor, decides whether R_d is
reachable, and each design's own certificate decides its status.  Only a
failed program designs the ceiling, to say why (`_explain`); a floor at
R_max is no special case.

Constraining psi - lam > 0 on (zeta, xi] is exactly the
successful-decoding condition on (eta, eps], because
eps*(psi - lam) = g(P) at x = 1 - rho(1 - P).  LP solves go through
`lp_solve`, a dense vertex method in the package (`_simplex`; Nocedal &
Wright, 2006, ch. 13), since every LP has at most 31 unknowns and two
equality rows.  Its steps update an inverse of the vertex's rows in
product form rather than factor them afresh, and each exit solves its
vertex once more by LU.  It solves each LP (all have inequality rows) by row
generation: a 4096-row design LP, of which a handful of rows are active,
converges in two or three rounds of at most a few hundred rows, each
continuing from the last round's vertex.  The rate LP starts from
lam = x^{d_v-1}, its tie-break LP from the rate-optimal vertex, and each
zeta_tilde-tuning LP after the first from the last one's vertex and
working set; only the other LPs run a phase one.
`grid_n` sets the rate LP's rows, uniform in x, and the min-iter nodes.
Every "Optimal" report carries a passed certificate.  No command imports
scipy.
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
MAX_NEWTON_STEPS = 100  # steps of the min-iteration active-set Newton method
KKT_TOL = 1e-9  # relative KKT residual at which the min-iteration design stops
TUNE_FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
TUNE_L_MAX = 5000
FLOOR_RELIEF = 1e-13  # relative raise of the rate floor of the utility LP and of min-iter
WORKING_SET_N = 64  # `lp_solve`'s seed rows, and most rows added per round
PRIMAL_TOL = 1e-10  # most that an LP vertex may miss any row by (the KKT gate)
ROW_TOL = 1e-12  # most that a vertex step may leave a row missed by
DUAL_TOL = 1e-12  # most that an LP multiplier may fall below 0 at an optimum
PIVOT_TOL = 1e-11  # least pivot, relative to its row and direction
LP_MAX_STEPS = 10_000  # vertex steps of one `_simplex` call
REFACTOR_STEPS = 16  # `_simplex` steps between fresh inverses of the vertex matrix
INVERSE_TOL = 1e-10  # most |G[w] @ inverse - I| of a fresh inverse that `_simplex` updates


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
    working_set: np.ndarray  # the A_ub rows of the last round


def _pick(ratio: np.ndarray) -> Optional[int]:
    """The index of the least finite ratio, the lowest on a tie (as Bland's rule asks)."""
    k = int(np.argmin(ratio))
    return None if ratio[k] == np.inf else k


def _pivot(B_inv, u, k, w, p):
    """The inverse of G[w] once row k of the vertex becomes row p, and w sorted.

    u = G[p] @ B_inv, so u[k] is the pivot.  The product-form update
    (Gill, Golub, Murray & Saunders, Math. Comp. 1974): column k is
    divided by u[k], and every other column j loses u[j] times that.
    Sorting w permutes the rows of G[w], and so the columns of its inverse.
    """
    col = B_inv[:, k] / u[k]
    B_inv -= col[:, None] * u
    B_inv[:, k] = col
    w[k] = p
    order = np.argsort(w)
    w[:] = w[order]
    return B_inv[:, order]


def _simplex(c, G, h, n_eq, w):
    """Minimize c @ x s.t. G @ x <= h, the first n_eq rows with equality, by vertex steps.

    The last c.size rows of G are -I (x >= 0).  A vertex is n = c.size
    rows, the sorted positions w: x solves G[w] @ x = h[w] (a bound row
    of w sets its x_j to exactly 0), and the multipliers y solve
    G[w]' @ y = -c, >= 0 on inequality rows at the optimum.  While x
    misses a row by more than `ROW_TOL`, a dual step brings in the row
    it misses most in place of the row whose multiplier reaches zero first,
    the cost first shifted, if need be, so that no multiplier is negative
    (that is phase one).  Once x meets every row, the cost is c again and
    a primal step drops the row with the most negative multiplier and moves
    along the edge to the first row it meets.  The row to bring in or drop
    is Dantzig's choice; a degenerate step (one that moves nothing)
    switches it to Bland's lowest-index rule until a step moves, and ties
    in the ratio test always go to the lowest index, so no basis repeats
    (Bland, Math. Oper. Res. 1977).
    Each step works from an inverse of G[w] rather than factoring it:
    x, y, the entering row's pivots and the edge are products with it, x
    and y each refined once against G[w], and a step updates it in
    product form (`_pivot`).  It is computed afresh from G[w] on entry,
    every `REFACTOR_STEPS` steps, and at the step after a fresh inverse
    that misses inverting G[w] by more than `INVERSE_TOL` (a near-singular
    G[w], as a crash vertex can be, whose updates would carry its error
    on).  Over the LPs of `reproduce all` an updated inverse misses
    inverting G[w] by at most 4e-9.  On every exit x and y are solved once
    more from G[w] by LU, so a run through the same vertices as one that
    factors G[w] at every step returns the same bits.
    Returns (status, w, x, y).
    """
    n = c.size
    bounds = h.size - n
    ineq = np.arange(h.size) >= n_eq
    # a primal step's least pivot on each row, relative to |d|; none on equality rows
    floor = np.where(ineq, PIVOT_TOL * np.abs(G).max(axis=1), np.inf)
    cost, bland = c, False
    B_inv, trusted = _inverse(G[w])
    age = 0
    for _ in range(LP_MAX_STEPS):
        B, hw = G[w], h[w]
        # from the inverse, with one step of iterative refinement each
        x, y = B_inv @ hw, -(cost @ B_inv)
        x += B_inv @ (hw - B @ x)
        y -= (cost + y @ B) @ B_inv
        x[w[w >= bounds] - bounds] = 0.0
        out = G @ x - h
        out[w] = -np.inf
        out[:n_eq] = -np.inf
        live = ineq[w]
        if out.max() > ROW_TOL:
            if np.any(live & (y < -DUAL_TOL)):
                # a floor above 0, not 0 itself, keeps the dual steps from stalling
                y = np.where(live, np.maximum(y, 1e-6), y)
                cost = -B.T @ y
            missed = np.flatnonzero(out > ROW_TOL)
            p = missed[0] if bland else missed[np.argmax(out[missed])]
            u = G[p] @ B_inv
            ok = live & (u > PIVOT_TOL * np.abs(u).max())
            ratio = np.divide(np.where(y > DUAL_TOL, y, 0.0), u, out=np.full(n, np.inf), where=ok)
            k = _pick(ratio)
            if k is None:
                return ("Infeasible", w) + _vertex(G, h, w, cost)
            bland = ratio[k] == 0.0  # a degenerate step
        else:
            if cost is not c:
                cost = c
                continue
            neg = np.flatnonzero(live & (y < -DUAL_TOL))
            if neg.size == 0:
                return ("Optimal", w) + _vertex(G, h, w, cost)
            k = int(neg[0] if bland else neg[np.argmin(y[neg])])
            d = -B_inv[:, k]
            rate = G @ d
            rate[w] = 0.0
            ratio = np.divide(np.where(out < -ROW_TOL, -out, 0.0), rate,
                              out=np.full(h.size, np.inf), where=rate > floor * np.abs(d).max())
            p = _pick(ratio)
            if p is None:
                return ("Unbounded", w) + _vertex(G, h, w, cost)
            bland = ratio[p] == 0.0
            u = G[p] @ B_inv
        age += 1
        if age < REFACTOR_STEPS and trusted:
            B_inv = _pivot(B_inv, u, k, w, p)
        else:
            w[k] = p
            w.sort()
            B_inv, trusted = _inverse(G[w])
            age = 0
    raise NumericalFailure(f"LP ran out its LP_MAX_STEPS={LP_MAX_STEPS} vertex steps")


def _inverse(B):
    """B's inverse, and whether B @ inverse is I within `INVERSE_TOL` (not so for a near-singular B)."""
    B_inv = np.linalg.inv(B)
    return B_inv, np.abs(B @ B_inv - np.eye(B.shape[0])).max() <= INVERSE_TOL


def _vertex(G, h, w, cost):
    """x and y of the vertex w, solved from G[w] by LU: `_simplex`'s exit values."""
    B, bounds = G[w], h.size - w.size
    x = np.linalg.solve(B, h[w])
    x[w[w >= bounds] - bounds] = 0.0
    return x, np.linalg.solve(B.T, -cost)


def _crash(G, h, n_eq, x0):
    """Sorted positions of n independent rows of G that hold at x0: the
    equality rows, then the rows x0 meets within `ROW_TOL` from the
    tightest, then the bounds, each kept if it is independent of those
    before it (Gram-Schmidt)."""
    n = x0.size
    slack = h - G @ x0
    tight = np.flatnonzero(slack[n_eq:] <= ROW_TOL) + n_eq
    order = np.concatenate([np.arange(n_eq), tight[np.argsort(slack[tight], kind="stable")],
                            np.arange(h.size - n, h.size)])
    Q, chosen = np.zeros((n, 0)), []
    for i in order:
        r = G[i] - Q @ (Q.T @ G[i])
        norm = float(np.linalg.norm(r))
        if norm > 1e-9 * np.linalg.norm(G[i]):
            Q = np.column_stack([Q, r / norm])
            chosen.append(i)
            if len(chosen) == n:
                break
    return np.sort(np.array(chosen, dtype=np.intp))


def lp_solve(c, A_ub, b_ub, A_eq=None, b_eq=None, start_rows=None, start=None) -> LPResult:
    """Minimize c @ x over x >= 0 by row generation around `_simplex`, and verify the KKT residual.

    Every LP here has inequality rows A_ub @ x <= b_ub, so they are
    required; equality rows are optional.  `_simplex` runs on a working
    set of the rows of A_ub: `WORKING_SET_N` evenly spaced rows (all of
    them when there are no more), the indices `start_rows` and the rows of
    the start vertex; after each solve, up to `WORKING_SET_N` of the rows
    that x violates most by more than `ROW_TOL` join it, and the next
    solve continues from the last vertex, until x violates none.  An
    infeasible working set is a relaxation of the LP, so the LP is
    Infeasible; an unbounded one is widened to every row.  The start is
    the vertex that the rows holding at `start` span (`_crash`), or, with
    no start, the one the equality rows and the bounds x_j = 0 span.  The
    vertex solves its own rows exactly, and is checked against all rows:
    each within `PRIMAL_TOL`, complementary slackness at 1e-8 and
    stationarity at 1e-6 (relative to the dual magnitude); `dual_ub` is
    zero off the working set, and `working_set` lists it, ready to start a
    related LP with the same rows.
    Returns status "Optimal", "Infeasible", or "Unbounded"; raises
    NumericalFailure on a failed check.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A_ub = np.asarray(A_ub, dtype=np.float64)
    b_ub = np.asarray(b_ub, dtype=np.float64)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=np.float64)
    b_eq = np.asarray([] if b_eq is None else b_eq, dtype=np.float64)
    m, e = b_ub.size, b_eq.size
    G = np.vstack([A_eq, A_ub, -np.eye(n)])
    h = np.concatenate([b_eq, b_ub, np.zeros(n)])
    basis = _crash(G, h, e, np.zeros(n) if start is None else np.asarray(start, dtype=np.float64))
    active = np.zeros(m, dtype=bool)
    # evenly spaced seed rows; every row when there are no more than that
    active[np.round(np.linspace(0, m - 1, WORKING_SET_N)).astype(np.intp)] = True
    if start_rows is not None:
        active[start_rows] = True
    active[basis[(basis >= e) & (basis < e + m)] - e] = True
    while True:
        rows = np.flatnonzero(active)
        L = np.concatenate([np.arange(e), rows + e, np.arange(e + m, e + m + n)])
        status, w, x, y = _simplex(c, G[L], h[L], e, np.searchsorted(L, basis))
        basis = L[w]
        if status == "Unbounded" and rows.size < m:
            active[:] = True
            continue
        if status != "Optimal":
            return LPResult(np.array([]), np.nan, np.array([]), np.array([]), status, 0.0, rows)
        excess = A_ub @ x - b_ub
        excess[active] = -np.inf
        new = np.flatnonzero(excess > ROW_TOL)
        if new.size == 0:
            break
        active[new[np.argsort(-excess[new], kind="stable")[:WORKING_SET_N]]] = True

    dual = np.zeros(h.size)
    dual[basis] = y
    nu, mu, reduced = dual[:e], dual[e:e + m], dual[e + m:]
    fun = float(c @ x)
    excess = np.append(A_ub @ x - b_ub, np.abs(A_eq @ x - b_eq)).max()
    if excess > PRIMAL_TOL:
        raise NumericalFailure(f"primal infeasibility {excess:.3e} exceeds {PRIMAL_TOL:g}")

    # stationarity: c + A_ub' mu + A_eq' nu - (reduced costs at x >= 0) = 0
    cs = float(np.max(np.abs(mu * (b_ub - A_ub @ x))))
    grad = c + A_ub.T @ mu + A_eq.T @ nu - reduced
    dual_scale = max(float(np.max(np.abs(c))), float(np.max(np.abs(mu))),
                     float(np.max(np.abs(nu), initial=0.0)))
    cs_rel = cs / (1.0 + abs(fun))
    stat_rel = float(np.max(np.abs(grad))) / (1.0 + dual_scale)
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
        return _join(lead, f"required rate {spec.R_d} exceeds R_max={ceiling.objective!r}")
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
    top = np.eye(d_v - 1)[-1]  # lam = x^{d_v-1}: feasible whenever the LP is (`_reach_note`)
    A = _vandermonde(xs, d_v)
    b = psi(ctx, xs) - MARGIN
    rounds = 0
    while True:
        lp = lp_solve(-inv_degrees, A_ub=A, b_ub=b, A_eq=eq, b_eq=[1.0], start=top)
        if lp.status != "Optimal":
            return _infeasible("rate", f"grid LP is {lp.status}: "
                                       f"{_reach_note(xs, b, epsilon, d_v)}")
        # tie-break: pin the optimal rate, prefer small lam_2
        vec, note = lp.x, ""
        try:
            second = lp_solve(c2, A_ub=A, b_ub=b, A_eq=np.vstack([eq, inv_degrees]),
                              b_eq=[1.0, -lp.objective], start_rows=lp.working_set,
                              start=lp.x)
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


def _rate_floor(spec: DesignSpec) -> tuple[np.ndarray, float]:
    """The rate floor sum lam_j/j >= q as (1/j for j = 2 .. d_v, q).

    q = int rho/(1 - R_d), raised by the relative `FLOOR_RELIEF`: sum
    lam_j/j may miss it by 1e-13 relative (~450 ulps; the polish and
    renormalization lose a few) with the rate still >= R_d, and the floor
    sits at most (1 - R_d)*1e-13 above R_d.
    """
    q = spec.rho.integral() / (1.0 - spec.R_d) * (1.0 + FLOOR_RELIEF)
    return 1.0 / np.arange(2, spec.d_v + 1), q


def _utility_lp(spec: DesignSpec, zt: float, halvings: int,
                start_rows: Optional[np.ndarray] = None, start=None) -> LPResult:
    """Maximize t s.t. the `step_rows` on 2^halvings pieces and the `_rate_floor`, the last row."""
    A, b = step_rows(spec.rho, spec.epsilon, spec.d_v, zt, halvings)
    inv_degrees, q = _rate_floor(spec)
    floor = np.append(-inv_degrees, 0.0)
    return lp_solve(np.append(np.zeros(spec.d_v - 1), -1.0), A_ub=np.vstack([A, floor]),
                    b_ub=np.append(b, -q), A_eq=np.append(np.ones(spec.d_v - 1), 0.0)[None, :],
                    b_eq=[1.0], start_rows=start_rows, start=start)


def _bernstein_lp(spec: DesignSpec, zt: float) -> LPResult:
    """`_utility_lp` at anchor zt on the fewest pieces, 2^3 doubling up to 2^8, that admit it.

    Its optimum meets psi - lam >= t*psi' with t >= 0 on all of [zt, xi];
    the result is the 2^8-piece LP when none is Optimal.
    """
    for halvings in range(3, 9):
        lp = _utility_lp(spec, zt, halvings)
        if lp.status == "Optimal":
            break
    return lp


def _tune_zeta_tilde(spec: DesignSpec, ctx: DEContext) -> float:
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
    best_n, best_zt, rows, x0 = None, 0.5 * ctx.zeta, None, None
    for zt in [f * ctx.zeta for f in TUNE_FACTORS if f * ctx.zeta < 0.5 * ctx.xi]:
        try:
            res = _utility_lp(spec, zt, 3, start_rows=rows, start=x0)
        except NumericalFailure:
            continue
        if res.status != "Optimal":
            continue
        rows, x0 = res.working_set, res.x
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
    doubles the pieces, up to 2^8 (`_bernstein_lp`).  The rate floor
    carries a relative `FLOOR_RELIEF` (`_rate_floor`), so the rate is
    >= R_d.  A tuned anchor is solved again cold.  The certificate of
    (lam, t*(1 - 1e-6)) gives "Optimal" or "CertificateFail" (lam, t kept;
    max_violation = -margin); an LP infeasible on 2^8 pieces is
    "Infeasible", told by `_explain`.
    """
    spec.validate()
    ctx = spec.context()
    zt = spec.zeta_tilde if spec.zeta_tilde is not None else _tune_zeta_tilde(spec, ctx)
    lp = _bernstein_lp(spec, zt)
    if lp.status != "Optimal":
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


def _hankel(n: int) -> np.ndarray:
    """Index of X'diag(c)X, n x n, into the moments m[p - 1] = sum_i c_i*x_i^p.

    Column k of X carries x^{k+1}, so entry (k, l) is the moment of
    x^{k+l+2}; p runs over 2 .. 2n.
    """
    return np.add.outer(np.arange(n), np.arange(n)) + 1


def _active_set(v, M, psi_vals, w, inv_degrees, q) -> tuple[np.ndarray, float, str]:
    """Null-space active-set Newton for sum w/g over the simplex and the rate floor.

    From the start vertex v (g = psi - X v > 0) the working set holds
    the bounds lam_j = 0 (the zeros of v, and its LP round-off) and, once it
    binds, the floor inv_degrees @ v >= q.  Each step is the Newton step on
    the free coordinates in the null space Z of their equality rows (the
    sum, and the floor while it binds), by least squares: the reduced
    gradient lies in the range of the reduced Hessian Z'X'diag(2w/g^3)XZ,
    so the system stays consistent when that is singular (fewer nodes than
    free coordinates).  M holds x^1 .. x^{2(d_v-1)} at the nodes and its
    first d_v - 1 columns are X, so one product M'[w/g^2, 2w/g^3] gives
    the gradient and the Hessian (`_hankel`).  A ratio test stops the step
    at the first bound or the floor it crosses, which joins the working
    set (a bound at exactly 0); alpha halves until g > 0 and the Armijo
    rule holds, with the change of the objective summed term by term.
    Once the projected gradient is within `KKT_TOL` of the largest
    gradient entry, the bound or floor with the most negative multiplier
    below -`KKT_TOL` leaves the working set; with none, v is optimal.

    Returns (v, KKT residual, note): the residual is the larger of the
    projected gradient and the most negative multiplier, relative to the
    largest gradient entry; the note is empty at convergence, and says why
    the run stopped short after `MAX_NEWTON_STEPS` steps or at the first
    step whose line search halves alpha to 1e-12 without reaching a
    bound, which would only repeat itself.
    """
    n = v.size
    X = M[:, :n]
    hankel = _hankel(n)
    active = np.append(v <= 2.0**-53 * np.abs(v).sum(), False)  # the bounds, then the floor
    v = np.where(active[:n], 0.0, v)
    rows = np.vstack([np.ones(n), -inv_degrees])
    for step in range(1, MAX_NEWTON_STEPS + 1):
        g = psi_vals - X @ v
        moments = M.T @ np.column_stack([w / g**2, 2.0 * w / g**3])
        grad = moments[:n, 0]
        scale = float(np.max(grad))
        free = np.flatnonzero(~active[:n])
        k = 1 + int(active[n])
        # E' = QR: Q's first k columns span the equality rows, the rest (Z) their null space
        Q, R = np.linalg.qr(rows[:k, free].T, mode="complete")
        Z = Q[:, k:]
        reduced = Z.T @ grad[free]
        y = np.linalg.solve(R[:k], -Q[:, :k].T @ grad[free])
        # working-set multipliers: grad + y[0] - y[1]*inv_degrees on a bound, y[1] on the floor
        mu = np.append(grad + rows[:k].T @ y, y[-1])[active] / scale
        projected = float(np.max(np.abs(Z @ reduced), initial=0.0)) / scale
        gap = max(projected, -float(mu.min(initial=0.0)))
        if projected <= KKT_TOL:
            if gap <= KKT_TOL:
                return v, gap, ""
            active[np.flatnonzero(active)[np.argmin(mu)]] = False
            continue
        H = moments[hankel[np.ix_(free, free)], 1]
        p = np.zeros(n)
        p[free] = Z @ np.linalg.lstsq(Z.T @ H @ Z, -reduced, rcond=None)[0]
        # ratio test over the bounds and the floor off the working set
        slack = np.append(v, inv_degrees @ v - q)
        rate = np.append(p, inv_degrees @ p)
        ratios = np.full(n + 1, np.inf)
        down = (rate < 0.0) & ~active
        ratios[down] = np.maximum(slack[down], 0.0) / -rate[down]
        blocking = int(np.argmin(ratios))
        alpha = min(1.0, ratios[blocking])
        x_step = X @ p
        slope = float(grad @ p)
        while True:
            g_t = g - alpha * x_step
            if g_t.min() > 0.0 and float(np.sum(w * x_step / (g * g_t))) <= 0.25 * slope:
                break
            alpha *= 0.5
            if alpha <= 1e-12:
                return v, gap, (f"active-set Newton line search stalled at step {step} "
                                f"at KKT residual {gap:.3e}")
        v = v + alpha * p
        if alpha == ratios[blocking]:
            active[blocking] = True
            if blocking < n:
                v[blocking] = 0.0
    return v, gap, (f"active-set Newton ran out its MAX_NEWTON_STEPS={MAX_NEWTON_STEPS} "
                    f"steps at KKT residual {gap:.3e}")


def design_min_iterations(spec: DesignSpec) -> SolveReport:
    """Minimize the discretized iteration integral by active-set Newton.

    The objective sum w_i/(psi_i - lam(x_i)) over the `grid_n` log-P
    midpoint nodes P_i of [eta, eps], with x_i = 1 - rho(1 - P_i),
    psi_i = P_i/eps and w_i = P_i*du/eps, is sum P_i*du/g(P_i): the
    approx_N of `estimators.code_estimates` at grid_n nodes.  It is convex
    and already penalizes the curve constraint; the constraints are the
    coefficient simplex and the `_rate_floor` of `design_utility`, so the
    rate is >= R_d after renormalization.  The start is the vertex of the
    utility LP anchored at zeta (`_bernstein_lp`): psi - lam >= t*psi' >= 0
    holds at its optimum on all of [zeta, xi], which holds every node, so
    whether a start exists does not depend on grid_n.  An LP with no
    optimum on 2^8 pieces, or a start with node slack min g <= 1e-10,
    makes the design "Infeasible", and only then is the rate ceiling
    designed, to say why (`_explain`).  `_active_set` runs from that
    vertex, and `optimality_gap` is its KKT residual.  A run that ends at
    `MAX_NEWTON_STEPS` or on a stalled line search is "IterLimit", with
    the step and residual in `detail`; otherwise the certificate of
    psi - lam >= 0 on [zeta, xi] gives "Optimal" or "CertificateFail"
    (lam kept).  Either way the certificate rides along, and
    max_violation is -certificate.margin.  Unused degrees are exact zeros,
    so lam may end below degree d_v.
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

    lp = _bernstein_lp(spec, ctx.zeta)
    slack = float(np.min(psi_vals - X @ lp.x[:-1])) if lp.status == "Optimal" else -np.inf
    if slack <= 1e-10:  # -inf when the LP has no optimum on 2^8 pieces
        return _infeasible("min-iter", _explain(spec, (
            f"no interior start point (Bernstein LP {lp.status}, node slack {slack:.3e})")))
    v, gap, stop = _active_set(lp.x[:-1], M, psi_vals, w, *_rate_floor(spec))
    lam = _lam_from_vec(v, d_v).renormalized()

    g = psi_vals - X @ np.array([lam.coeff(j) for j in range(2, d_v + 1)])
    obj = float(np.sum(w / g)) if g.min() > 0.0 else np.inf
    cert = certify(compile_constraint(lam, 0.0, spec.rho, ctx.epsilon, ctx.zeta, ctx.xi))
    status, why = _verdict(cert)
    if stop:
        status, why = "IterLimit", _join(stop, why)
    return SolveReport(lam=lam, t=None, objective=obj, max_violation=-cert.margin,
                       optimality_gap=gap, status=status, certificate=cert,
                       method="min-iter", detail=why)
