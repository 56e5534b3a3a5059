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

from ldpc_forge import DEContext, DegreeDistribution, Ensemble, check_successful
from ldpc_forge.estimators import CurvePair, code_curves
from ldpc_forge.errors import DegenerateGap


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
        if check_successful(e, ctx, grid_size=2048).ok:
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
        try:
            pair.validate()
        except DegenerateGap:
            continue
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


def full_lp_reference(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=(0, None)):
    """One HiGHS solve on every row under the package's `LP_OPTIONS`.

    The single-shot LP that `lp_solve`'s row generation must reproduce;
    no working set, polish or KKT gate.
    """
    from scipy.optimize import linprog

    from ldpc_forge.solve import LP_OPTIONS

    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                   method="highs", options=LP_OPTIONS)


def failing_tie_break(lp_solve):
    """`lp_solve` that fails the rate tie-break LP, the one with two equality rows."""
    from ldpc_forge import NumericalFailure

    def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, start_rows=None):
        if A_eq is not None and len(A_eq) == 2:
            raise NumericalFailure("complementary-slackness residual forced to fail")
        return lp_solve(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                        start_rows=start_rows)
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


def _scaled_bernstein(coeffs) -> tuple[list[int], int]:
    """Integers beta_k and den with b_k = beta_k/(den*C(D, k)), b the Bernstein form."""
    fr = [Fraction(float(c)) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fr))
    return _binomial_step([int(f * den) for f in fr], [1] * len(fr)), den


def exact_bernstein(coeffs) -> list[Fraction]:
    """Bernstein coefficients on [0, 1] of sum_k coeffs[k] s^k, as exact rationals."""
    beta, den = _scaled_bernstein(coeffs)
    D = len(beta) - 1
    return [Fraction(bk, den * math.comb(D, k)) for k, bk in enumerate(beta)]


def bernstein_oracle(coeffs, max_depth: int = 16):
    """Exact-rational decision of sum_k coeffs[k] s^k >= 0 on [0, 1].

    True when every piece's Bernstein coefficients are >= 0, False when a
    piece ends below zero, None when a piece is still open at max_depth.
    Works in Python integers on beta_k = C(D, k)*b_k times a positive
    scale, which keeps every sign: the left half of a piece has
    beta'_i = 2^(D - i)*sum_{j<=i} C(D - j, i - j)*beta_j (the same scale
    times 2^D), and the right half is the left half of the reversal.
    """
    beta, _ = _scaled_bernstein(coeffs)
    D = len(beta) - 1
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


def compose_reference(c, inner) -> np.ndarray:
    """sum_k c[k]*inner(s)^k by Horner's rule through `npoly.polymul`."""
    import numpy.polynomial.polynomial as npoly

    out = np.array([c[-1]])
    for ck in c[-2::-1]:
        out = npoly.polymul(out, inner)
        out[0] += ck
    return out


def columns_reference(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float):
    """`sip_compile._columns` composed through numpy's polynomial routines."""
    import numpy.polynomial.polynomial as npoly

    from ldpc_forge.de_engine import z_of_x

    a = 1.0 - epsilon
    b = z_of_x(rho, float(zeta_tilde))
    z_s = np.array([a, b - a])
    x_s = npoly.polysub([1.0], compose_reference(rho.dense, z_s))
    drho_s = compose_reference(npoly.polyder(rho.dense), z_s)
    D = (drho_s.size - 1) + (x_s.size - 1) * (d_v - 1)
    cols = np.zeros((d_v, D + 1))
    const = npoly.polymul(drho_s, [1.0 - a, a - b])
    cols[0, :const.size] = const
    power = epsilon * drho_s
    for j in range(1, d_v):
        power = npoly.polymul(power, x_s)
        cols[j, :power.size] = power
    return a, b, cols


def step_rows_reference(rho: DegreeDistribution, epsilon: float, d_v: int,
                        zeta_tilde: float, halvings: int):
    """`sip_compile.step_rows` on `columns_reference`, with Pascal tables built afresh."""
    _, _, cols = columns_reference(rho, epsilon, d_v, zeta_tilde)
    D = cols.shape[1] - 1
    C = np.zeros((D + 1, D + 1))
    C[:, 0] = 1.0
    for i in range(1, D + 1):
        C[i, 1:i + 1] = C[i - 1, :i] + C[i - 1, 1:i + 1]
    left = C * np.exp2(-np.arange(D + 1.0))[:, None]
    right = left[::-1, ::-1]
    pieces = cols @ (C / C[D]).T
    for _ in range(halvings):
        pieces = np.stack([pieces @ left.T, pieces @ right.T],
                          axis=1).reshape(-1, pieces.shape[1])
    B = pieces.reshape(d_v, -1)
    B[np.abs(B) < (3 * D + 2) * 2.0**-52 * np.abs(cols).sum(axis=1)[:, None]] = 0.0
    A = np.column_stack([B[1:].T, np.ones(B.shape[1])])
    scale = np.max(np.abs(A), axis=1)
    return A / scale[:, None], B[0] / scale


def margin_reference(coeffs, witness=None) -> float:
    """`nonneg_on_unit`'s margin by `npoly.polyval`: the least sample, and the witness."""
    import numpy.polynomial.polynomial as npoly

    from ldpc_forge.sip_compile import _SAMPLES

    margin = float(np.min(npoly.polyval(_SAMPLES, coeffs)))
    if witness is None:
        return margin
    return min(margin, float(npoly.polyval(witness, coeffs)))
