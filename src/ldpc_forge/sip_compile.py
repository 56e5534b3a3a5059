"""Compile the band constraint psi - lam - t*psi' >= 0 on [zeta_tilde, xi]
into a single polynomial nonnegativity condition, and certify it.

With psi replaced by its truncated series (module `series`, order M) the
constraint is a polynomial inequality on an interval.  The substitution
x = (xi - zeta_tilde) y^2/(1+y^2) + zeta_tilde maps y in R onto
[zeta_tilde, xi); multiplying through by (1+y^2)^D with D = M-1 clears
denominators and leaves an even polynomial pi(y) = sum_k pi_k y^{2k} whose
nonnegativity on all of R is equivalent to the original interval
constraint.  Writing u = y^2, the decision reduces to p(u) = sum pi_k u^k
being nonnegative on [0, inf), settled exactly by a Sturm chain; a
positive-semidefinite Gram matrix realizing pi as a sum of two squares can
be constructed on demand from paired complex roots.

The pi_k are affine in (lam_2..lam_{d_v}, t), which is what lets designers
treat the compiled constraint as linear data.  The convolutions below
build each pi_k from coefficient rows of (zeta_tilde + xi*u)^i (1+u)^{D-i}
directly; the textbook form that factors out zeta_tilde^i (see
`binomial_tables`) divides by zeta_tilde and cannot be evaluated at the
zeta_tilde = 0 setting used for rate maximization, while the direct
product form has no singularity there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import numpy.polynomial.polynomial as npoly

from .ensemble import DegreeDistribution
from .errors import DomainError, NumericalFailure, OrderTooSmall, ZetaTildeZero
from .series import TaylorSeries

ArrayLike = Union[float, np.ndarray]

_ZERO_TOL = 1e-14
_SAMPLE_REL_TOL = 1e-11


def mobius_x_of_y(zeta_tilde: float, xi: float, y: ArrayLike) -> ArrayLike:
    """Map y in R to x in [zeta_tilde, xi); even in y, x(0) = zeta_tilde."""
    y2 = np.square(np.asarray(y, dtype=np.float64))
    out = (xi - zeta_tilde) * y2 / (1.0 + y2) + zeta_tilde
    return float(out) if np.isscalar(y) else out


def mobius_y_of_x(zeta_tilde: float, xi: float, x: ArrayLike) -> ArrayLike:
    """Nonnegative inverse of mobius_x_of_y; x = xi has no finite preimage."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xs.size and (xs.min() < zeta_tilde or xs.max() >= xi):
        bad = float(xs.min() if xs.min() < zeta_tilde else xs.max())
        raise DomainError(bad, zeta_tilde, xi, what="mobius abscissa")
    out = np.sqrt((xs - zeta_tilde) / (xi - xs))
    return float(out[0]) if np.isscalar(x) else out


def mobius_x_of_u(zeta_tilde: float, xi: float, u: ArrayLike) -> ArrayLike:
    """Same map with u = y^2 >= 0 as the parameter."""
    us = np.asarray(u, dtype=np.float64)
    out = (xi - zeta_tilde) * us / (1.0 + us) + zeta_tilde
    return float(out) if np.isscalar(u) else out


def binomial_tables(zeta_tilde: float, xi: float, D: int, i: int) -> dict:
    """The four textbook coefficient sequences for row i of the compilation.

    a_j = C(i,j)(xi/zeta_tilde)^j for j=0..i, b_j = C(D-i,j) for j=0..D-i,
    c_j = C(i-1,j)(xi/zeta_tilde)^j for j=0..i-1, d_j = C(D-i+1,j) for
    j=0..D-i+1.  The ratio form divides by zeta_tilde, so the
    zeta_tilde = 0 rate-maximization setting must use the regrouped product
    form in `compile_constraint` instead.
    """
    if zeta_tilde == 0.0:
        raise ZetaTildeZero()
    if not 1 <= i <= D:
        raise ValueError(f"i must lie in 1..{D}, got {i}")
    r = xi / zeta_tilde
    a = np.array([math.comb(i, j) * r**j for j in range(i + 1)])
    b = np.array([float(math.comb(D - i, j)) for j in range(D - i + 1)])
    c = np.array([math.comb(i - 1, j) * r**j for j in range(i)])
    d = np.array([float(math.comb(D - i + 1, j)) for j in range(D - i + 2)])
    return {"a": a, "b": b, "c": c, "d": d}


def gap_coefficients(lam: DegreeDistribution, T: TaylorSeries) -> np.ndarray:
    """Power-series coefficients f_1..f_D of the gap psi_T(x) - lam(x).

    f_i multiplies x^i; the lam part only reaches i = d_v - 1, beyond that
    the series coefficients stand alone.
    """
    M = T.taylor_order
    d_v = lam.d_max
    if M <= d_v:
        raise OrderTooSmall(M, d_v)
    f = T.coeffs.copy()  # f[i-1] = T_{i+1}, i = 1..D
    for degree, value in lam.coeffs.items():
        f[degree - 2] -= value
    return f


@dataclass(frozen=True, eq=False)
class ConstraintPolynomial:
    """Even-polynomial form of the compiled band constraint.

    pi[k] multiplies u^k = y^{2k}.  The affine decomposition
    pi = const_col + lam_cols @ (lam_2..lam_{d_v}) + t * t_col is stored so
    solvers can treat the certificate data as linear in the decision
    variables.
    """

    pi: np.ndarray
    D: int
    const_col: np.ndarray
    lam_cols: np.ndarray
    t_col: np.ndarray
    zeta_tilde: float
    xi: float
    T: Optional[TaylorSeries]
    d_v: int

    def affine(self, lam_vec: np.ndarray, t: float) -> np.ndarray:
        """Re-evaluate pi at new decision variables (lam_2..lam_{d_v}, t)."""
        lam_vec = np.asarray(lam_vec, dtype=np.float64)
        if lam_vec.shape != (self.lam_cols.shape[1],):
            raise ValueError(
                f"expected {self.lam_cols.shape[1]} lam coefficients, got {lam_vec.shape}"
            )
        return self.const_col + self.lam_cols @ lam_vec + t * self.t_col

    @classmethod
    def from_coefficients(cls, pi) -> "ConstraintPolynomial":
        """Bare wrapper around explicit pi values, for direct certification."""
        pi = np.asarray(pi, dtype=np.float64)
        D = pi.size - 1
        return cls(
            pi=pi,
            D=D,
            const_col=pi.copy(),
            lam_cols=np.zeros((pi.size, 0)),
            t_col=np.zeros(pi.size),
            zeta_tilde=0.0,
            xi=1.0,
            T=None,
            d_v=2,
        )


def _product_rows(zeta_tilde: float, xi: float, D: int) -> np.ndarray:
    """rows[i, k] = coefficient of u^k in (zeta_tilde + xi*u)^i (1+u)^{D-i}."""
    rows = np.zeros((D + 1, D + 1))
    base_pow = np.array([1.0])
    for i in range(D + 1):
        pascal = np.array([float(math.comb(D - i, j)) for j in range(D - i + 1)])
        rows[i] = np.convolve(base_pow, pascal)
        if i < D:
            base_pow = np.convolve(base_pow, np.array([zeta_tilde, xi]))
    return rows


def compile_constraint(
    lam: DegreeDistribution,
    t: float,
    T: TaylorSeries,
    zeta_tilde: float,
    xi: float,
) -> ConstraintPolynomial:
    """Compile psi_T - lam - t*psi_T' >= 0 on [zeta_tilde, xi] to pi form.

    lam may be an arbitrary candidate (negative coefficients allowed); the
    compilation is affine in its coefficients and in t.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not 0.0 <= zeta_tilde < xi:
        raise DomainError(zeta_tilde, 0.0, xi, what="zeta_tilde")
    f = gap_coefficients(lam, T)
    D = T.taylor_order - 1
    d_v = lam.d_max
    rows = _product_rows(zeta_tilde, xi, D)
    t_coeffs = T.coeffs  # t_coeffs[i-1] = T_{i+1}
    deriv_weights = np.arange(1, D + 1) * t_coeffs
    const_col = t_coeffs @ rows[1:]
    lam_cols = -rows[1:d_v].T
    t_col = -(deriv_weights @ rows[:D])
    lam_vec = np.array([lam.coeff(j) for j in range(2, d_v + 1)])
    pi = const_col + lam_cols @ lam_vec + t * t_col
    # cross-check against the single-sum form of the same convolutions;
    # tolerance scales with the summed term magnitudes (row entries reach
    # ~1e16 at D ~ 60, so reordering noise dwarfs any fixed atol)
    scale = np.abs(f) @ rows[1:] + t * (np.abs(deriv_weights) @ rows[:D]) + 1.0
    resid = np.abs(pi - (f @ rows[1:] + t * t_col))
    if not np.all(resid <= 1e-12 * scale):
        raise NumericalFailure(
            f"compiled constraint disagrees with its single-sum form: relative "
            f"residual {float(np.max(resid / scale)):.3e} exceeds 1e-12")
    return ConstraintPolynomial(
        pi=pi,
        D=D,
        const_col=const_col,
        lam_cols=lam_cols,
        t_col=t_col,
        zeta_tilde=float(zeta_tilde),
        xi=float(xi),
        T=T,
        d_v=d_v,
    )


@dataclass(frozen=True)
class NonnegCertificate:
    """Outcome of deciding p(u) >= 0 on [0, inf).

    kind is "SturmPass", "SturmFail", or "GramMatrix" (a pass carrying the
    positive-semidefinite witness).  margin is the smallest sampled value
    of p; for failures, witness_u locates a strictly negative value.
    """

    kind: str
    margin: float
    witness_u: Optional[float] = None
    witness_value: Optional[float] = None
    gram: Optional[np.ndarray] = None

    @property
    def passed(self) -> bool:
        return self.kind != "SturmFail"


def _trim_leading(c: np.ndarray, tol: float) -> np.ndarray:
    k = c.size
    while k > 1 and abs(c[k - 1]) <= tol:
        k -= 1
    return c[:k]


def _sturm_chain(p: np.ndarray) -> list[np.ndarray]:
    # members are rescaled to unit max-norm; positive scaling preserves
    # every sign relation the chain is read through
    chain = [p]
    dp = _trim_leading(npoly.polyder(p), 0.0)
    if np.max(np.abs(dp)) > 0.0:
        chain.append(dp / np.max(np.abs(dp)))
    while chain[-1].size > 1:
        _, rem = npoly.polydiv(chain[-2], chain[-1])
        rem = _trim_leading(rem, _ZERO_TOL)
        if rem.size == 1 and abs(rem[0]) <= _ZERO_TOL:
            break  # common factor reached; counting stays valid
        rem = -rem
        chain.append(rem / np.max(np.abs(rem)))
    return chain


def _sign_at_zero_plus(c: np.ndarray) -> int:
    for v in c:
        if abs(v) > _ZERO_TOL:
            return 1 if v > 0 else -1
    return 0


def _count_flips(signs: list[int]) -> int:
    flips = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            flips += 1
        prev = s
    return flips


def _variations_at(chain: list[np.ndarray], x: float) -> tuple[int, float]:
    # nudge off chain roots so every member has a definite sign
    for attempt in range(60):
        vals = [npoly.polyval(x, c) for c in chain]
        scales = [max(npoly.polyval(abs(x), np.abs(c)), 1e-300) for c in chain]
        if all(abs(v) > 1e-13 * s for v, s in zip(vals, scales)):
            break
        x += (1e-12 + abs(x) * 1e-13) * (attempt + 1)
    signs = [1 if v > 0 else -1 for v in vals]
    return _count_flips(signs), x


def _sign_of_p_near(c: np.ndarray, x: float, lo: float, hi: float) -> int:
    # sign of p just inside [lo, hi] at x, nudging inward past near-zeros
    span = max(hi - lo, 1e-12)
    for attempt in range(40):
        v = npoly.polyval(x, c)
        scale = max(npoly.polyval(abs(x), np.abs(c)), 1e-300)
        if abs(v) > 1e-13 * scale:
            return 1 if v > 0 else -1
        x = min(max(x + span * 1e-9 * (attempt + 1), lo), hi)
        span *= 1.5
    return 0


def _isolate_crossing_on_unit(c: np.ndarray) -> Optional[float]:
    """Sturm-isolate a sign crossing of p in [0, 1]; None if p >= 0 there.

    Touch points (even multiplicity) are compatible with nonnegativity and
    produce no witness.
    """
    chain = _sturm_chain(c)
    v_zero = _count_flips([_sign_at_zero_plus(m) for m in chain])
    v_one, _ = _variations_at(chain, 1.0)
    n_roots = v_zero - v_one
    if n_roots <= 0:
        return None
    queue = [(0.0, 1.0, n_roots, v_zero, v_one)]
    guard = 0
    while queue and guard < 4000:
        guard += 1
        lo, hi, k, v_lo, v_hi = queue.pop()
        if k == 1 or hi - lo <= 1e-13 * (1.0 + hi):
            s_lo = _sign_of_p_near(c, lo, lo, hi) if lo > 0.0 else _sign_at_zero_plus(c)
            s_hi = _sign_of_p_near(c, hi, lo, hi)
            if s_lo < 0:
                return lo
            if s_hi < 0:
                return hi
            continue
        mid = 0.5 * (lo + hi)
        v_mid, mid = _variations_at(chain, mid)
        if v_lo - v_mid > 0:
            queue.append((lo, mid, v_lo - v_mid, v_lo, v_mid))
        if v_mid - v_hi > 0:
            queue.append((mid, hi, v_mid - v_hi, v_mid, v_hi))
    return None


def nonneg_on_halfline(coeffs: np.ndarray) -> NonnegCertificate:
    """Decide sum_k coeffs[k] u^k >= 0 for all u >= 0.

    The half-line splits into two unit-interval charts: p on [0, 1], and
    the reversed polynomial q(v) = v^D p(1/v) on [0, 1] covering u >= 1.
    Polynomial evaluations then never leave [0, 1], so no root bound or
    overflow-prone large-argument sampling is involved.  Each chart gets a
    Sturm-chain crossing isolation plus a dense sample backstop; reported
    margins and witness values are p(u)/(1+u)^D, the gap in curve units.
    """
    raw = np.asarray(coeffs, dtype=np.float64)
    scale = float(np.max(np.abs(raw))) if raw.size else 0.0
    if scale == 0.0:
        return NonnegCertificate(kind="SturmPass", margin=0.0)
    D_full = raw.size - 1
    c_full = raw / scale
    q_full = c_full[::-1].copy()
    c = _trim_leading(c_full, _ZERO_TOL)

    if c.size == 1:
        val = float(c[0] * scale)
        if c[0] < 0.0:
            return NonnegCertificate("SturmFail", val, witness_u=0.0, witness_value=val)
        return NonnegCertificate("SturmPass", val)

    def gap_value(u: float) -> float:
        # p(u)/(1+u)^D without large powers: switch charts at u = 1
        if u <= 1.0:
            return float(npoly.polyval(u, c_full) / (1.0 + u) ** D_full * scale)
        v = 1.0 / u
        return float(npoly.polyval(v, q_full) / (1.0 + v) ** D_full * scale)

    ts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 2048),
        np.geomspace(1e-12, 1.0, 1024),
    ]))
    weights = (1.0 + ts) ** D_full
    samples = []
    for poly, back in ((c_full, False), (q_full, True)):
        vals = npoly.polyval(ts, poly)
        mags = np.maximum(npoly.polyval(ts, np.abs(poly)), 1e-300)
        samples.append((vals, vals / mags, back))
    margin = scale * min(float(np.min(vals / weights)) for vals, _, _ in samples)

    def fail_at(u: float) -> NonnegCertificate:
        val = gap_value(u)
        return NonnegCertificate("SturmFail", margin=min(margin, val),
                                 witness_u=float(u), witness_value=val)

    for vals, rel, back in samples:
        k_min = int(np.argmin(rel))
        if rel[k_min] < -_SAMPLE_REL_TOL:
            t_bad = float(ts[k_min])
            return fail_at(1.0 / t_bad if back and t_bad > 0.0 else
                           (1e300 if back else t_bad))

    if _sign_at_zero_plus(c) < 0:
        return fail_at(0.0)
    if c_full[-1] < -_ZERO_TOL:
        return fail_at(1e300)  # negative leading coefficient: p -> -inf

    for poly, back in ((c, False), (_trim_leading(q_full, _ZERO_TOL), True)):
        if poly.size == 1:
            continue
        witness = _isolate_crossing_on_unit(poly)
        if witness is None:
            continue
        # sharpen to the most negative nearby sample in this chart
        local = np.linspace(max(witness - 1e-3, 0.0), min(witness + 1e-3, 1.0), 512)
        lv = npoly.polyval(local, poly)
        j = int(np.argmin(lv))
        spot = float(local[j]) if lv[j] < 0.0 else (
            float(witness) if npoly.polyval(witness, poly) < 0.0 else None)
        if spot is None:
            # the chain flagged a crossing the samples cannot confirm; the
            # violation, if real, is below sampling precision
            continue
        if back:
            return fail_at(1.0 / spot if spot > 0.0 else 1e300)
        return fail_at(spot)
    return NonnegCertificate("SturmPass", margin)


def gram_matrix(pi: np.ndarray, polish_steps: int = 4) -> Optional[np.ndarray]:
    """Sum-of-two-squares Gram matrix for pi(y) = sum pi_k y^{2k}, or None.

    Pairs the complex roots of p(u) = sum pi_k u^k: each root r contributes
    the y-roots +-sqrt(r).  Collecting one member of every conjugate pair
    (and half of every real cluster) into h(y) gives
    pi(y) ~ |h(y)|^2 = (Re h)^2 + (Im h)^2, whose coefficient outer
    products form the positive-semidefinite Gram matrix over the basis
    (1, y, ..., y^D).  Returns None when p is not actually nonnegative on
    [0, inf) (odd real clusters) or the numerical residual is too large.
    """
    raw = np.asarray(pi, dtype=np.float64)
    scale = float(np.max(np.abs(raw))) if raw.size else 0.0
    if scale == 0.0:
        return np.zeros((raw.size, raw.size))
    c = _trim_leading(raw / scale, _ZERO_TOL)
    D_full = raw.size - 1
    if c.size == 1:
        if c[0] < 0.0:
            return None
        g = np.zeros((D_full + 1, D_full + 1))
        g[0, 0] = c[0] * scale
        return g
    if c[-1] < 0.0:
        return None
    roots = np.roots(c[::-1]).astype(np.complex128)
    dp = npoly.polyder(c)
    for _ in range(polish_steps):
        slope = npoly.polyval(roots, dp)
        ok = np.abs(slope) > 1e-30
        roots[ok] = roots[ok] - npoly.polyval(roots[ok], c)[ok] / slope[ok]

    y_roots: list[complex] = []
    for r in roots:
        w = np.sqrt(complex(r))
        y_roots.extend([w, -w])
    im_tol = 1e-7
    h_roots = [y for y in y_roots if y.imag > im_tol * (1.0 + abs(y))]
    real_ys = sorted(y.real for y in y_roots if abs(y.imag) <= im_tol * (1.0 + abs(y)))
    # real y-roots of a nonnegative pi must pair up; keep one per pair
    idx = 0
    while idx < len(real_ys):
        j = idx + 1
        while j < len(real_ys) and abs(real_ys[j] - real_ys[idx]) <= 1e-6 * (1.0 + abs(real_ys[idx])):
            j += 1
        cluster = real_ys[idx:j]
        if len(cluster) % 2 != 0:
            return None
        mean = sum(cluster) / len(cluster)
        h_roots.extend([mean] * (len(cluster) // 2))
        idx = j
    h = np.array([1.0 + 0.0j])
    for y0 in h_roots:
        h = np.convolve(h, np.array([-y0, 1.0]))
    h = h * math.sqrt(abs(c[-1]) * scale)
    H = np.zeros(D_full + 1, dtype=np.complex128)
    H[: h.size] = h
    gram = np.outer(H.real, H.real) + np.outer(H.imag, H.imag)

    target = np.zeros(2 * D_full + 1)
    target[::2] = raw
    achieved = np.array([np.trace(gram[::-1], offset=k - D_full) for k in range(2 * D_full + 1)])
    if np.max(np.abs(achieved - target)) > 1e-9 * max(1.0, scale):
        return None
    return gram


def gram_residual(pi: np.ndarray, gram: np.ndarray) -> float:
    """Worst absolute defect in the anti-diagonal sum equalities."""
    pi = np.asarray(pi, dtype=np.float64)
    D = pi.size - 1
    target = np.zeros(2 * D + 1)
    target[::2] = pi
    achieved = np.array([np.trace(gram[::-1], offset=k - D) for k in range(2 * D + 1)])
    return float(np.max(np.abs(achieved - target)))


def certify(cp: ConstraintPolynomial, want_gram: bool = False) -> NonnegCertificate:
    """Decide whether the compiled constraint holds on all of [zeta_tilde, xi].

    Returns a SturmFail with a witness u (map it back through
    mobius_x_of_u for the abscissa) when the constraint is violated.  With
    want_gram, a passing certificate is upgraded to carry the Gram matrix
    when its construction meets the residual tolerance.
    """
    cert = nonneg_on_halfline(cp.pi)
    if want_gram and cert.passed:
        g = gram_matrix(cp.pi)
        if g is not None:
            return NonnegCertificate(
                kind="GramMatrix",
                margin=cert.margin,
                gram=g,
            )
    return cert
