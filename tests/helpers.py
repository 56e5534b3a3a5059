"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's own numeric paths: recursions
are plain Python float loops, polynomial checks go through numpy's reference
routines, and quadrature cross-checks use scipy.  When a test compares the
package against one of these, a bug in the package cannot cancel out.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ldpc_forge import DEContext, DegreeDistribution, Ensemble, _kernels
from ldpc_forge.estimators import CurvePair, code_curves


def poly_eval_by_hand(coeffs: dict[int, float], x: float) -> float:
    """Degree-indexed generating polynomial, summed term by term."""
    return sum(v * x ** (d - 1) for d, v in coeffs.items())


def de_recursion_oracle(lam: dict[int, float], rho: dict[int, float],
                        eps: float, eta: float, l_max: int = 200_000):
    """Pure-Python erasure recursion; returns (count, probs) or (None, probs)."""
    probs = [eps]
    p = eps
    for l in range(1, l_max + 1):
        inner = 1.0 - poly_eval_by_hand(rho, 1.0 - p)
        p_next = eps * poly_eval_by_hand(lam, inner)
        probs.append(p_next)
        if p_next < eta:
            return l, probs
        if p_next >= p * (1.0 - 1e-12):
            return None, probs
        p = p_next
    return None, probs


def polyval_recursion_reference(lam_c, rho_c, eps: float, eta: float, l_max: int,
                                stall_tol: float):
    """The erasure recursion by `np.polyval` on coefficient arrays.

    Same stop rules and return shape as `_kernels.de_run`: a float64 array
    P_0 .. P_n and a STATUS_* code (0 reached, 1 stalled, 2 cap).
    """
    lam_d = np.asarray(lam_c, dtype=np.float64)[::-1]
    rho_d = np.asarray(rho_c, dtype=np.float64)[::-1]
    probs = [eps]
    p = eps
    for _ in range(l_max):
        inner = 1.0 - float(np.polyval(rho_d, 1.0 - p))
        p_next = eps * float(np.polyval(lam_d, inner))
        probs.append(p_next)
        if p_next < eta:
            return np.array(probs), 0
        if p_next >= p * (1.0 - stall_tol):
            return np.array(probs), 1
        p = p_next
    return np.array(probs), 2


def staircase_oracle(lam: dict[int, float], rho: dict[int, float],
                     eps: float, eta: float, l_max: int = 200_000):
    """Ordinate-domain recursion Z_l = lam(1 - rho(1 - eps*Z_{l-1})), Z_0 = 1.

    Same count as the probability recursion under Z = P/eps with target
    eta/eps; kept separate so the two conventions cross-check each other.
    """
    z = 1.0
    target = eta / eps
    for l in range(1, l_max + 1):
        x = 1.0 - poly_eval_by_hand(rho, 1.0 - eps * z)
        z_next = poly_eval_by_hand(lam, x)
        if z_next < target:
            return l
        if z_next >= z * (1.0 - 1e-12):
            return None
        z = z_next
    return None


def psi_monomial_closed_form(d_c: int, eps: float, x):
    """psi for rho(x) = x^(d_c-1): (1/eps) * (1 - (1-x)^(1/(d_c-1)))."""
    return (1.0 - (1.0 - np.asarray(x)) ** (1.0 / (d_c - 1))) / eps


def psi_deriv_monomial_closed_form(d_c: int, eps: float, x):
    """Derivative of the closed form above."""
    w = 1.0 / (d_c - 1)
    return w / eps * (1.0 - np.asarray(x)) ** (w - 1.0)


def recursion_margin(e: Ensemble, ctx: DEContext, grid_size: int = 4096):
    """Least recursion step g(P) = P - eps*lam(1 - rho(1 - P)) on a uniform
    grid over (eta, eps], eta excluded, and its P; decoding succeeds iff
    g > 0 on all of (eta, eps].  A scan on the package's own
    `_kernels.recursion_gap`, not an independent oracle."""
    ps = ctx.eta + (ctx.epsilon - ctx.eta) / grid_size * np.arange(1, grid_size + 1)
    gaps = _kernels.recursion_gap(e.lam.dense, ctx.rho.dense, ctx.epsilon, ps)
    k = int(np.argmin(gaps))
    return float(gaps[k]), float(ps[k])


def random_simplex_lambda(rng: np.random.Generator, d_v: int = 16,
                          n_support: int | None = None) -> DegreeDistribution:
    """Random degree distribution with support {2, 3} plus a few higher degrees."""
    if n_support is None:
        n_support = int(rng.integers(1, 4))
    pool = np.arange(4, d_v + 1)
    extra = sorted(rng.choice(pool, size=min(n_support, pool.size), replace=False).tolist())
    degs = [2, 3] + extra
    w = rng.dirichlet(np.ones(len(degs)))
    return DegreeDistribution({d: float(v) for d, v in zip(degs, w)})


def random_decodable_ensemble(rng: np.random.Generator, rho: DegreeDistribution,
                              eps: float, eta: float, d_v: int = 16,
                              max_tries: int = 500) -> Ensemble:
    """Rejection-sample a lam whose recursion provably reaches eta."""
    ctx = DEContext.create(rho, eps, eta)
    cap = 1.0 / (eps * rho.eval_deriv(1.0))
    for _ in range(max_tries):
        lam = random_simplex_lambda(rng, d_v)
        if lam.coeff(2) >= 0.95 * cap:
            continue
        e = Ensemble(lam=lam, rho=rho)
        if recursion_margin(e, ctx, grid_size=2048)[0] > 0.0:
            return e
    raise RuntimeError("could not sample a decodable ensemble")


def random_feasible_pair(rng: np.random.Generator, rho: DegreeDistribution,
                         eps: float, eta: float, d_v: int = 16,
                         max_tries: int = 500) -> CurvePair:
    """Rejection-sample a lam/psi pair with a positive gap on [zeta, xi]."""
    ctx = DEContext.create(rho, eps, eta)
    for _ in range(max_tries):
        lam = random_simplex_lambda(rng, d_v)
        pair = code_curves(Ensemble(lam=lam, rho=rho), ctx)
        xs = np.linspace(pair.a, pair.b, 257)
        if np.min(pair.f2(xs) - pair.f1(xs)) > 0.0:
            return pair
    raise RuntimeError("could not sample a feasible curve pair")


def fixture_context(fx, default_eta: float = 1e-3) -> DEContext:
    """DEContext from a stored fixture's own parameters."""
    eta = fx.params.get("eta") or default_eta
    return DEContext.create(fx.ensemble.rho, fx.params["epsilon"], eta)


def count_at_target(probs, target: float):
    """First index with P <= target (tiny relative band), else None."""
    arr = np.asarray(probs)
    hit = np.nonzero(arr <= target + 1e-12 * (1.0 + target))[0]
    return int(hit[0]) if hit.size else None


def lp_vertex_enumeration_oracle(c, A_ub, b_ub, A_eq=None, b_eq=None):
    """Brute-force LP optimum over all basic feasible points, x >= 0.

    Enumerates every choice of n active constraints among the inequality
    rows, the equality rows (always active), and the axes; solves the
    square system; keeps feasible points.  Only sensible for <= ~6 vars.
    """
    import itertools

    c = np.asarray(c, dtype=float)
    A_ub = np.asarray(A_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.size
    rows = [(A_ub[i], b_ub[i]) for i in range(A_ub.shape[0])]
    rows += [(np.eye(n)[j], 0.0) for j in range(n)]
    forced = []
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        forced = [(A_eq[i], b_eq[i]) for i in range(A_eq.shape[0])]
    best = None
    k = n - len(forced)
    for combo in itertools.combinations(range(len(rows)), k):
        sel = forced + [rows[i] for i in combo]
        A = np.array([r for r, _ in sel])
        b = np.array([v for _, v in sel])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < -1e-9):
            continue
        if np.any(A_ub @ x > b_ub + 1e-9):
            continue
        if forced and np.max(np.abs(A_eq @ x - b_eq)) > 1e-9:
            continue
        val = float(c @ x)
        if best is None or val < best[0]:
            best = (val, x)
    return best


def full_lp_reference(c, A_ub, b_ub, A_eq=None, b_eq=None):
    """One HiGHS solve, through scipy, over x >= 0 on every row.

    An independent LP code: the single-shot LP that `lp_solve`'s row
    generation and vertex method must reproduce, with no working set or
    KKT gate.  Presolve is off: it took seconds on the 4096-row rate LPs.
    """
    from scipy.optimize import linprog

    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs",
                   options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def reference_simplex(c, G, h, n_eq, w):
    """`solve._simplex`'s vertex method with G[w] factored afresh at every step.

    The same choices and tolerances, but each step solves by LU three
    times (`numpy.linalg.solve`): for x, for y, and for the entering row's
    pivots (a dual step) or the edge (a primal step), where `_simplex`
    multiplies by its updated inverse.  The oracle for those steps: both
    must pass through the same vertices and return the same bits.
    """
    from ldpc_forge.errors import NumericalFailure
    from ldpc_forge.solve import DUAL_TOL, LP_MAX_STEPS, PIVOT_TOL, ROW_TOL, _pick

    n = c.size
    ineq = np.arange(h.size) >= n_eq
    size = np.abs(G).max(axis=1)
    cost, bland = c, False
    for _ in range(LP_MAX_STEPS):
        B = G[w]
        x = np.linalg.solve(B, h[w])
        x[w[w >= h.size - n] - (h.size - n)] = 0.0
        y = np.linalg.solve(B.T, -cost)
        out = G @ x - h
        out[w] = -np.inf
        out[~ineq] = -np.inf
        if out.max() > ROW_TOL:
            if np.any(ineq[w] & (y < -DUAL_TOL)):
                y = np.where(ineq[w], np.maximum(y, 1e-6), y)
                cost = -B.T @ y
            missed = np.flatnonzero(out > ROW_TOL)
            p = missed[0] if bland else missed[np.argmax(out[missed])]
            u = np.linalg.solve(B.T, G[p])
            ok = ineq[w] & (u > PIVOT_TOL * np.abs(u).max())
            ratio = np.full(n, np.inf)
            ratio[ok] = np.where(y[ok] > DUAL_TOL, y[ok], 0.0) / u[ok]
            k = _pick(ratio)
            if k is None:
                return "Infeasible", w, x, y
        else:
            if cost is not c:
                cost = c
                continue
            neg = np.flatnonzero(ineq[w] & (y < -DUAL_TOL))
            if neg.size == 0:
                return "Optimal", w, x, y
            k = int(neg[0] if bland else neg[np.argmin(y[neg])])
            d = np.linalg.solve(B, -np.eye(n)[k])
            rate = G @ d
            rate[w] = 0.0
            ok = ineq & (rate > PIVOT_TOL * size * np.abs(d).max())
            ratio = np.full(h.size, np.inf)
            ratio[ok] = np.where(out[ok] < -ROW_TOL, -out[ok], 0.0) / rate[ok]
            p = _pick(ratio)
            if p is None:
                return "Unbounded", w, x, y
        bland = ratio.min() == 0.0
        w[k] = p
        w.sort()
    raise NumericalFailure(f"LP ran out its LP_MAX_STEPS={LP_MAX_STEPS} vertex steps")


class SimplexTwin:
    """Runs `reference_simplex` beside every `solve._simplex` call, through monkeypatch.

    ``pairs`` keeps (reference, updated) results, each (status, w, x, y);
    ``drift`` keeps max |G[w] @ inverse - I| of every inverse that
    `solve._pivot` updates, the one in force at each refactor included.
    """

    def __init__(self, monkeypatch):
        from ldpc_forge import solve

        self.pairs, self.drift = [], []
        simplex, pivot, rows = solve._simplex, solve._pivot, []

        def twin(c, G, h, n_eq, w):
            rows[:] = [G]
            ref = reference_simplex(c, G, h, n_eq, w.copy())
            self.pairs.append((ref, simplex(c, G, h, n_eq, w)))
            return self.pairs[-1][1]

        def updated(B_inv, u, k, w, p):
            out = pivot(B_inv, u, k, w, p)
            self.drift.append(float(np.abs(rows[0][w] @ out - np.eye(w.size)).max()))
            return out

        monkeypatch.setattr(solve, "_simplex", twin)
        monkeypatch.setattr(solve, "_pivot", updated)

    @staticmethod
    def same_steps(ref, new) -> bool:
        """Same status, working set and x to the bit, and y too at an optimum."""
        return (ref[0] == new[0] and ref[1].tobytes() == new[1].tobytes()
                and ref[2].tobytes() == new[2].tobytes()
                and (ref[0] != "Optimal" or ref[3].tobytes() == new[3].tobytes()))


RANDOM_LP_KINDS = ("gaussian", "vandermonde", "integer", "duplicated", "origin", "simplex01")
DEGENERATE_LP_KINDS = RANDOM_LP_KINDS[2:]


def random_lp(rng: np.random.Generator, kind: str):
    """(c, A_ub, b_ub, A_eq, b_eq) of a random LP over x >= 0, n <= 30 and m < 300.

    Kinds: Gaussian rows; rows c_i*(1, t_i, t_i^2, ...) at close t_i (the
    rate LP's Vandermonde conditioning, n <= 16); small-integer rows;
    integer rows each repeated; integer rows through the origin; and 0/1
    rows.  Rows hold at a random x0 >= 0 with slack.  In the last four
    kinds, the `DEGENERATE_LP_KINDS`, x0 has zero and half-integer entries
    and about 30% of the rows hold at it with no slack (all of them for
    "origin", whose x0 is 0), so vertices there lie on more than n rows
    and steps tie.  Each LP has 0 to 2 equality rows that hold at x0;
    one in ten then has a right side lowered by 2, which may make it
    infeasible.  A box row sum(x) <= n keeps them bounded.
    """
    n = int(rng.integers(2, 17 if kind == "vandermonde" else 31))
    m = int(rng.integers(1, 150))
    if kind == "gaussian":
        A = rng.normal(size=(m, n))
    elif kind == "vandermonde":
        t = np.sort(rng.uniform(0.0, 1.0, size=m))
        A = rng.uniform(0.5, 1.5, size=(m, 1)) * t[:, None] ** np.arange(n)
    elif kind in ("integer", "origin"):
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
    elif kind == "duplicated":
        A = np.repeat(rng.integers(-2, 3, size=(m // 2 + 1, n)).astype(float), 2, axis=0)
    elif kind == "simplex01":
        A = (rng.uniform(size=(m, n)) < 0.5).astype(float)
    else:
        raise ValueError(kind)
    if kind in DEGENERATE_LP_KINDS:
        x0 = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.integers(0, 3, size=n) * 0.5)
        if kind == "origin":
            x0[:] = 0.0
        slack = np.where(rng.uniform(size=A.shape[0]) < 0.3, 0.0,
                         rng.integers(1, 4, size=A.shape[0]) * 0.5)
    else:
        x0 = rng.uniform(0.0, 1.0, size=n)
        slack = rng.uniform(0.1, 1.0, size=A.shape[0])
    b = A @ x0 + slack
    if rng.uniform() < 0.1:
        b[rng.integers(0, b.size)] -= 2.0
    n_eq = int(rng.integers(0, 3))
    A_eq = rng.uniform(0.5, 1.5, size=(n_eq, n)) if n_eq else None
    b_eq = A_eq @ x0 if n_eq else None
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, max(float(n), x0.sum()))
    return rng.normal(size=n), A, b, A_eq, b_eq


def failing_tie_break(lp_solve):
    """`lp_solve` that fails the rate tie-break LP, the one with two equality rows."""
    from ldpc_forge import NumericalFailure

    def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **starts):
        if A_eq is not None and len(A_eq) == 2:
            raise NumericalFailure("complementary-slackness residual forced to fail")
        return lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, **starts)
    return solve


def fail_own_certificate(monkeypatch) -> None:
    """Make `solve.certify` fail every certificate: margin -1 at x = 0.5.

    A designer that succeeds certifies only its own design, so the fake
    decides that design's verdict and nothing else.
    """
    from ldpc_forge import NonnegCertificate, solve

    def certify(cp):
        return NonnegCertificate("SturmFail", -1.0, witness=0.5, witness_value=-1.0)

    monkeypatch.setattr(solve, "certify", certify)


def stability_cap(rho: DegreeDistribution, eps: float) -> float:
    """Upper limit on lam_2 for the recursion to contract near zero."""
    return 1.0 / (eps * rho.eval_deriv(1.0))


def utility_oracle(lam: dict[int, float], rho: dict[int, float], eps: float,
                   zeta_tilde: float, x_start: float, dps: int = 50) -> float:
    """min of the step (psi - lam)/psi' on [zeta_tilde, xi] at dps digits.

    In z = rho^{-1}(1 - x) the step is rho'(z)*((1 - z) - eps*lam(1 - rho(z)))
    on [1 - eps, z(zeta_tilde)].  The minimum is the least of the two
    endpoint values and of the stationary point that Newton's method
    reaches from z(x_start), so x_start must sit near the true minimizer.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    eps = mp.mpf(eps)

    def poly(coeffs, x, deriv=0):
        return sum(mp.mpf(v) * mp.ff(d - 1, deriv) * x ** (d - 1 - deriv)
                   for d, v in coeffs.items() if d - 1 >= deriv)

    def z_of(x):
        return mp.findroot(lambda z: poly(rho, z) - (1 - mp.mpf(x)), (0, 1),
                           solver="illinois")

    def step(z):
        return poly(rho, z, 1) * ((1 - z) - eps * poly(lam, 1 - poly(rho, z)))

    z_lo, z_hi = 1 - eps, z_of(zeta_tilde)
    candidates = [step(z_lo), step(z_hi)]
    try:
        z_star = mp.findroot(lambda z: mp.diff(step, z), z_of(x_start))
    except (ValueError, ZeroDivisionError):
        z_star = None
    if z_star is not None and z_lo <= z_star <= z_hi:
        candidates.append(step(z_star))
    return float(min(candidates))


def code_estimates_oracle(lam: dict[int, float], rho: dict[int, float],
                          eps: float, eta: float) -> float:
    """approx_N by adaptive quadrature at epsrel 1e-12.

    The integral approx_N = int dP/g(P), with
    g(P) = P - eps*lam(1 - rho(1 - P)) = eps*(psi - lam) at
    x = 1 - rho(1 - P), is taken over P in [eta, eps] with the substitution
    u = log P, which spreads the nodes evenly over the decades of P.  The
    polynomials are summed term by term from the degree maps.
    """
    from scipy.integrate import quad

    def g(P):
        return P - eps * poly_eval_by_hand(lam, 1.0 - poly_eval_by_hand(rho, 1.0 - P))

    return quad(lambda u: math.exp(u) / g(math.exp(u)), math.log(eta), math.log(eps),
                epsabs=0.0, epsrel=1e-12, limit=1000)[0]


def step_polynomial_oracle(lam: dict[int, float], rho: dict[int, float], eps: float,
                           t: float, a: float, b: float, ss, dps: int = 50) -> list[float]:
    """P(z) = rho'(z)*((1 - z) - eps*lam(1 - rho(z))) - t at z = a + (b - a)*s.

    Evaluated term by term from the degree maps at dps digits, one value
    per s in ss; no polynomial is expanded, composed or truncated.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = dps
    eps, t, a, b = (mp.mpf(v) for v in (eps, t, a, b))

    def poly(coeffs, x, deriv=0):
        return sum(mp.mpf(v) * mp.ff(d - 1, deriv) * x ** (d - 1 - deriv)
                   for d, v in coeffs.items() if d - 1 >= deriv)

    out = []
    for s in ss:
        z = a + (b - a) * mp.mpf(float(s))
        out.append(float(poly(rho, z, 1) * ((1 - z) - eps * poly(lam, 1 - poly(rho, z))) - t))
    return out


def _binomial_step(v: list[int], weights: list[int]) -> list[int]:
    """out_k = weights[k]*sum_{j<=k} C(D - j, k - j)*v_j, D = len(v) - 1."""
    D = len(v) - 1
    return [weights[k] * sum(math.comb(D - j, k - j) * v[j] for j in range(k + 1))
            for k in range(D + 1)]


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_k and e >= 0 with values[k] = n_k/2^e exactly (floats are dyadic)."""
    fr = [Fraction(float(v)) for v in values]
    e = max(f.denominator.bit_length() - 1 for f in fr)
    return [f.numerator << (e - f.denominator.bit_length() + 1) for f in fr], e


def _to_bernstein(ints: list[int], e: int) -> list[Fraction]:
    """Bernstein coefficients on [0, 1] of sum_k ints[k]/2^e*s^k, exactly."""
    D = len(ints) - 1
    beta = _binomial_step(ints, [1] * (D + 1))
    return [Fraction(bk, math.comb(D, k) << e) for k, bk in enumerate(beta)]


def bernstein_from_power(coeffs) -> np.ndarray:
    """A power-form test polynomial as the Bernstein input the subdivision
    (`sip_compile._negative_point`) takes: converted exactly, then rounded
    to floats."""
    return np.array([float(b) for b in _to_bernstein(*_dyadic(coeffs))])


def exact_bernstein_value(coeffs, s) -> Fraction:
    """sum_k b_k*C(D, k)*s^k*(1 - s)^(D - k) for Bernstein b, exactly at the float s."""
    ints, e = _dyadic(coeffs)
    (num,), es = _dyadic([s])
    D = len(ints) - 1
    rest = (1 << es) - num
    total = sum(v * math.comb(D, k) * num**k * rest**(D - k) for k, v in enumerate(ints))
    return Fraction(total, 1 << (e + es * D))


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _power_columns(rho: DegreeDistribution, epsilon: float, d_v: int, a: float, b: float):
    """`sip_compile._columns` in the power basis of s, exactly: per column the
    integers c_k and e with coefficient c_k/2^e, padded to degree D.

    Composed on integers over a power of two, where nothing cancels.
    """
    (ia, ib), ez = _dyadic([a, b])

    def compose(c, ec):  # (sum_k c_k*z(s)^k)*2^e as integers, and e
        out, e = [c[-1]], ec
        for ck in c[-2::-1]:
            out, e = _mul(out, [ia, ib - ia]), e + ez
            out[0] += ck << (e - ec)
        return out, e

    r, er = _dyadic(rho.dense)
    rho_s, ex = compose(r, er)
    x = [-v for v in rho_s]
    x[0] += 1 << ex
    drho, ed = compose([k * r[k] for k in range(1, len(r))], er)
    (ie,), ee = _dyadic([epsilon])
    D = (len(r) - 1) * d_v - 1
    cols = [(_mul(drho, [(1 << ez) - ia, ia - ib]), ed + ez)]
    power, ep = [ie * v for v in drho], ed + ee
    for _ in range(1, d_v):
        power, ep = _mul(power, x), ep + ex
        cols.append((power, ep))
    return [(col + [0] * (D + 1 - len(col)), e) for col, e in cols]


def exact_columns(rho: DegreeDistribution, epsilon: float, d_v: int,
                  a: float, b: float) -> list[list[Fraction]]:
    """`sip_compile._columns` in exact rationals from the same float inputs."""
    return [_to_bernstein(*col) for col in _power_columns(rho, epsilon, d_v, a, b)]


def exact_step_pieces(cp) -> tuple[list[Fraction], list[Fraction]]:
    """The exact Bernstein coefficients of a `ConstraintPolynomial`'s P, from
    the same float inputs, and those of its left half on [0, 1/2]."""
    (col0, e0), *cols = _power_columns(cp.rho, cp.epsilon, cp.lam.dense.size, cp.a, cp.b)
    lam, el = _dyadic(np.append(cp.lam.dense[1:], cp.t))
    e = max(e0, max(ec for _, ec in cols) + el)
    p = [v << (e - e0) for v in col0]
    for l_j, (col, ec) in zip(lam, cols):
        p = [pk - ((l_j * v) << (e - ec - el)) for pk, v in zip(p, col)]
    p[0] -= lam[-1] << (e - el)
    # the left half's scaled coefficients, as in `bernstein_oracle`, over 2^(e + D)
    D = len(p) - 1
    half = _binomial_step(_binomial_step(p, [1] * (D + 1)), [2 ** (D - i) for i in range(D + 1)])
    return (_to_bernstein(p, e),
            [Fraction(bk, math.comb(D, k) << (e + D)) for k, bk in enumerate(half)])


def bernstein_oracle(coeffs, max_depth: int = 16):
    """Exact-rational decision of p >= 0 on [0, 1] for p with Bernstein coefficients coeffs.

    True when every piece's Bernstein coefficients are >= 0, False when a
    piece ends below zero, None when a piece is still open at max_depth.
    Works in Python integers on beta_k = C(D, k)*b_k times a positive
    scale, which keeps every sign: the left half of a piece has
    beta'_i = 2^(D - i)*sum_{j<=i} C(D - j, i - j)*beta_j (the same scale
    times 2^D), and the right half is the left half of the reversal.
    """
    ints, _ = _dyadic(coeffs)
    D = len(ints) - 1
    beta = [math.comb(D, k) * v for k, v in enumerate(ints)]
    halve = [2 ** (D - i) for i in range(D + 1)]
    stack = [(beta, 0)]
    while stack:
        beta, depth = stack.pop()
        if beta[0] < 0 or beta[-1] < 0:
            return False
        if min(beta) >= 0:
            continue
        if depth == max_depth:
            return None
        stack.append((_binomial_step(beta[::-1], halve)[::-1], depth + 1))
        stack.append((_binomial_step(beta, halve), depth + 1))
    return True


def _pascal(D: int) -> np.ndarray:
    """Pascal's triangle to row D, built afresh by the package's recursion."""
    C = np.zeros((D + 1, D + 1))
    C[:, 0] = 1.0
    for i in range(1, D + 1):
        C[i, 1:i + 1] = C[i - 1, :i] + C[i - 1, 1:i + 1]
    return C


def _halve_reference(pieces: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Both de Casteljau halves of every row, each left half first."""
    left = C * np.exp2(-np.arange(C.shape[0] + 0.0))[:, None]
    right = left[::-1, ::-1]
    return np.stack([pieces @ left.T, pieces @ right.T], axis=1).reshape(-1, pieces.shape[1])


def _polymul(p, q) -> np.ndarray:
    """The product of two scaled Bernstein forms, at full length len(p) + len(q) - 1.

    `npoly.polymul` trims trailing zeros, which a scaled form keeps (its
    last entry is the value at s = 1, 0 at x = 0), and the shorter input
    changes `np.convolve`'s summation order; so this is np.convolve itself.
    """
    return np.convolve(np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64))


def compose_reference(c, z, pascal) -> np.ndarray:
    """Scaled Bernstein coefficients of sum_k c[k]*z(s)^k by Horner's rule, term by term."""
    out = np.array([c[-1]])
    for m in range(1, len(c)):
        out = _polymul(out, z)
        out += c[-1 - m] * pascal[m, :m + 1]
    return out


def columns_reference(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float):
    """`sip_compile._columns` step by step, with a fresh Pascal table."""
    import numpy.polynomial.polynomial as npoly

    from ldpc_forge.de_engine import z_of_x

    a = 1.0 - epsilon
    b = z_of_x(rho, float(zeta_tilde))
    n = rho.dense.size - 1
    D = n * d_v - 1
    C = _pascal(D)
    z = np.array([a, b])
    x = C[n, :n + 1] - compose_reference(rho.dense, z, C)
    drho = compose_reference(npoly.polyder(rho.dense), z, C)
    cols = np.zeros((d_v, D + 1))
    power = _polymul(drho, [1.0 - a, 1.0 - b])
    cols[0] = _polymul(power, C[D - n, :D - n + 1])
    power = epsilon * drho
    for j in range(1, d_v):
        power = _polymul(power, x)
        m = D + 1 - power.size
        cols[j] = _polymul(power, C[m, :m + 1])
    return a, b, cols / C[D], epsilon * float(drho[-1])


def step_rows_reference(rho: DegreeDistribution, epsilon: float, d_v: int,
                        zeta_tilde: float, halvings: int):
    """`sip_compile.step_rows` on `columns_reference`, with Pascal tables built afresh."""
    _, _, pieces, _ = columns_reference(rho, epsilon, d_v, zeta_tilde)
    C = _pascal(pieces.shape[1] - 1)
    for _ in range(halvings):
        pieces = _halve_reference(pieces, C)
    B = pieces.reshape(d_v, -1)
    A = np.column_stack([B[1:].T, np.ones(B.shape[1])])
    scale = np.max(np.abs(A), axis=1)
    return A / scale[:, None], B[0] / scale


def margin_reference(coeffs) -> float:
    """The least value of p at the ends of 2^12 equal pieces, from 12
    halvings with a fresh Pascal table."""
    pieces = np.asarray(coeffs, dtype=np.float64)[None, :]
    C = _pascal(pieces.shape[1] - 1)
    for _ in range(12):
        pieces = _halve_reference(pieces, C)
    return float(min(pieces[:, 0].min(), pieces[-1, -1]))
