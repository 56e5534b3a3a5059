"""Compile the step constraint psi - lam >= t*psi' on [zeta_tilde, xi] into
one exact polynomial inequality, and certify it.

In z = rho^{-1}(1 - x) the curve needs no inversion: x = 1 - rho(z),
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)).  Multiplying the constraint
by eps*rho'(z) > 0 turns it into

    P(z) = rho'(z)*[(1 - z) - eps*lam(1 - rho(z))] - t >= 0

on z in [1 - eps, z(zeta_tilde)], where x runs from xi down to
zeta_tilde.  P is a polynomial of degree (d_c - 2) + (d_c - 1)(d_v - 1),
affine in (lam, t), with no truncation anywhere.  `compile_constraint`
writes it in s on [0, 1] through z = a + (b - a)*s, a = 1 - eps and
b = z(zeta_tilde), and checks the coefficients against the closed form
of `_kernels.transfer_step` at a few nodes.

`nonneg_on_unit` decides p(s) >= 0 on [0, 1] from the sign at s = 0+, a
dense sample backstop and a Sturm-chain isolation of sign crossings.
`certify` runs it on P and reports margin and witness in curve units,
P/(eps*rho'(z)) = psi - lam - t*psi', with the witness given as x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import _kernels
from .de_engine import z_of_x
from .ensemble import DegreeDistribution
from .errors import DomainError, NumericalFailure

_ZERO_TOL = 1e-14
_SAMPLE_REL_TOL = 1e-11
_SAMPLES = np.linspace(0.0, 1.0, 4097)
_CHECK_NODES = np.linspace(0.0, 1.0, 5)
_CHECK_REL_TOL = 1e-12
_ISOLATION_STEPS = 4000  # Sturm isolation intervals before NumericalFailure


def _compose(c: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of sum_k c[k]*inner(s)^k, by Horner's rule."""
    out = np.array([c[-1]])
    for ck in c[-2::-1]:
        out = npoly.polymul(out, inner)
        out[0] += ck
    return out


@dataclass(frozen=True, eq=False)
class ConstraintPolynomial:
    """P in s on [0, 1]: coeffs[k] multiplies s^k, and z = a + (b - a)*s.

    s = 0 is x = xi and s = 1 is x = zeta_tilde.
    """

    coeffs: np.ndarray
    rho: DegreeDistribution
    epsilon: float
    a: float
    b: float
    zeta_tilde: float
    xi: float

    @property
    def D(self) -> int:
        return self.coeffs.size - 1

    def z_of(self, s):
        return self.a + (self.b - self.a) * np.asarray(s, dtype=np.float64)

    def x_of(self, s):
        # clipped: b carries the bisection residual of z(zeta_tilde)
        x = 1.0 - npoly.polyval(self.z_of(s), self.rho.dense)
        return np.clip(x, self.zeta_tilde, self.xi)

    def curve_gap(self, s):
        """psi - lam - t*psi' at x(s), i.e. P(s)/(eps*rho'(z(s)))."""
        weight = self.epsilon * npoly.polyval(self.z_of(s), npoly.polyder(self.rho.dense))
        return npoly.polyval(s, self.coeffs) / weight


def compile_constraint(
    lam: DegreeDistribution,
    t: float,
    rho: DegreeDistribution,
    epsilon: float,
    zeta_tilde: float,
    xi: float,
) -> ConstraintPolynomial:
    """Coefficients in s of P for (lam, t) on [zeta_tilde, xi].

    lam may be an arbitrary candidate (negative coefficients allowed).
    Raises NumericalFailure when the composed coefficients disagree with
    the closed form at the check nodes.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if not 0.0 <= zeta_tilde < xi:
        raise DomainError(zeta_tilde, 0.0, xi, what="zeta_tilde")
    a = 1.0 - epsilon
    b = z_of_x(rho, float(zeta_tilde))
    z_s = np.array([a, b - a])
    x_s = npoly.polysub([1.0], _compose(rho.dense, z_s))
    inner = npoly.polysub([1.0 - a, a - b], epsilon * _compose(lam.dense, x_s))
    coeffs = npoly.polymul(_compose(npoly.polyder(rho.dense), z_s), inner)
    coeffs[0] -= t
    cp = ConstraintPolynomial(coeffs=coeffs, rho=rho, epsilon=float(epsilon), a=a, b=b,
                              zeta_tilde=float(zeta_tilde), xi=float(xi))
    _, step = _kernels.transfer_step(lam.dense, rho.dense, epsilon, cp.z_of(_CHECK_NODES))
    scale = npoly.polyval(_CHECK_NODES, np.abs(coeffs)) + t
    resid = np.abs(npoly.polyval(_CHECK_NODES, coeffs) - (step - t))
    if not np.all(resid <= _CHECK_REL_TOL * scale):
        raise NumericalFailure(
            f"compiled constraint disagrees with its closed form: relative "
            f"residual {float(np.max(resid / scale)):.3e} exceeds {_CHECK_REL_TOL:g}")
    return cp


@dataclass(frozen=True)
class NonnegCertificate:
    """Outcome of deciding nonnegativity on an interval.

    kind is "SturmPass" or "SturmFail".  margin is the smallest sampled
    value; on failure witness locates a strictly negative value,
    witness_value.  `nonneg_on_unit` reports p and s; `certify` reports
    the curve gap psi - lam - t*psi' and x.
    """

    kind: str
    margin: float
    witness: Optional[float] = None
    witness_value: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.kind == "SturmPass"


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


def _chain_matrix(chain: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    # members as zero-padded columns of C, and |C|: Horner adds zeros exactly
    C = np.zeros((chain[0].size, len(chain)))
    for j, m in enumerate(chain):
        C[:m.size, j] = m
    return C, np.abs(C)


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


def _variations_at(chain: tuple[np.ndarray, np.ndarray], x: float) -> tuple[int, float]:
    # nudge off chain roots so every member has a definite sign
    C, abs_C = chain
    for attempt in range(60):
        vals = npoly.polyval(x, C)
        scales = np.maximum(npoly.polyval(abs(x), abs_C), 1e-300)
        if np.all(np.abs(vals) > 1e-13 * scales):
            break
        x += (1e-12 + abs(x) * 1e-13) * (attempt + 1)
    positive = vals > 0
    return int(np.count_nonzero(positive[1:] != positive[:-1])), x


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
    produce no witness.  Leaves (one root, or too narrow to split at the
    nudged midpoint) are judged by the sign of p at their end points.
    """
    chain = _chain_matrix(_sturm_chain(c))
    v_zero = _count_flips([_sign_at_zero_plus(m) for m in chain[0].T])
    v_one, _ = _variations_at(chain, 1.0)
    n_roots = v_zero - v_one
    if n_roots <= 0:
        return None
    queue = [(0.0, 1.0, n_roots, v_zero, v_one)]
    steps = 0
    while queue:
        if steps == _ISOLATION_STEPS:
            raise NumericalFailure(f"Sturm isolation still has {queue[-1][:2]} open "
                                   f"after {_ISOLATION_STEPS} steps")
        steps += 1
        lo, hi, k, v_lo, v_hi = queue.pop()
        if k > 1 and hi - lo > 1e-13 * (1.0 + hi):
            v_mid, mid = _variations_at(chain, 0.5 * (lo + hi))
            if lo < mid < hi:  # else the nudge took mid out: a leaf
                if v_lo - v_mid > 0:
                    queue.append((lo, mid, v_lo - v_mid, v_lo, v_mid))
                if v_mid - v_hi > 0:
                    queue.append((mid, hi, v_mid - v_hi, v_mid, v_hi))
                continue
        s_lo = _sign_of_p_near(c, lo, lo, hi) if lo > 0.0 else _sign_at_zero_plus(c)
        s_hi = _sign_of_p_near(c, hi, lo, hi)
        if s_lo < 0:
            return lo
        if s_hi < 0:
            return hi
    return None


def nonneg_on_unit(coeffs) -> NonnegCertificate:
    """Decide sum_k coeffs[k] s^k >= 0 for all s in [0, 1].

    A dense sample backstop (both end points included) flags clear
    violations, the sign at s = 0+ catches a negative start that samples
    read as zero, and a Sturm chain isolates any remaining sign crossing,
    which a local sample must confirm before it counts.
    """
    raw = np.asarray(coeffs, dtype=np.float64)
    scale = float(np.max(np.abs(raw))) if raw.size else 0.0
    if scale == 0.0:
        return NonnegCertificate("SturmPass", 0.0)
    c = _trim_leading(raw / scale, _ZERO_TOL)
    vals = npoly.polyval(_SAMPLES, c)
    rel = vals / np.maximum(npoly.polyval(_SAMPLES, np.abs(c)), 1e-300)
    margin = scale * float(np.min(vals))

    def fail_at(s: float) -> NonnegCertificate:
        val = scale * float(npoly.polyval(s, c))
        return NonnegCertificate("SturmFail", min(margin, val), witness=float(s),
                                 witness_value=val)

    k = int(np.argmin(rel))
    if rel[k] < -_SAMPLE_REL_TOL:
        return fail_at(float(_SAMPLES[k]))
    if _sign_at_zero_plus(c) < 0:
        return fail_at(0.0)
    if c.size == 1:
        return NonnegCertificate("SturmPass", margin)
    witness = _isolate_crossing_on_unit(c)
    if witness is not None:
        # sharpen to the most negative nearby sample; a crossing the
        # samples cannot confirm is below sampling precision
        local = np.linspace(max(witness - 1e-3, 0.0), min(witness + 1e-3, 1.0), 512)
        lv = npoly.polyval(local, c)
        j = int(np.argmin(lv))
        if lv[j] < 0.0:
            return fail_at(float(local[j]))
    return NonnegCertificate("SturmPass", margin)


def certify(cp: ConstraintPolynomial) -> NonnegCertificate:
    """Decide whether the compiled constraint holds on all of [zeta_tilde, xi].

    Margin and witness value are in curve units, psi - lam - t*psi'; a
    SturmFail carries the abscissa x of a violation as its witness.
    """
    raw = nonneg_on_unit(cp.coeffs)
    margin = float(np.min(cp.curve_gap(_SAMPLES)))
    if raw.passed:
        return NonnegCertificate("SturmPass", margin)
    value = float(cp.curve_gap(raw.witness))
    return NonnegCertificate("SturmFail", min(margin, value),
                             witness=float(cp.x_of(raw.witness)), witness_value=value)
