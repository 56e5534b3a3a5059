"""Compile the step constraint psi - lam >= t*psi' on [zeta_tilde, xi] into
one exact polynomial inequality, and certify it.

In z = rho^{-1}(1 - x) the curve needs no inversion: x = 1 - rho(z),
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)).  Multiplying the constraint
by eps*rho'(z) > 0 turns it into

    P(z) = rho'(z)*[(1 - z) - eps*lam(1 - rho(z))] - t >= 0

on z in [1 - eps, z(zeta_tilde)], where x runs from xi down to
zeta_tilde.  P is a polynomial of degree (d_c - 2) + (d_c - 1)(d_v - 1),
affine in (lam, t), with no truncation anywhere.  `_columns` writes it
in s on [0, 1] through z = a + (b - a)*s, a = 1 - eps and
b = z(zeta_tilde), as one column per unknown: the only composition of P.
`compile_constraint` combines the columns for one (lam, t) and checks
the coefficients against the closed form of `_kernels.transfer_step` at
a few nodes.

`nonneg_on_unit` decides p(s) >= 0 on [0, 1] by Bernstein subdivision
(Lane & Riesenfeld, BIT 1981; Garloff 1986): on a piece, p lies within
its Bernstein coefficients and equals the end ones at the ends, so a
piece whose coefficients are all >= -tau_d closes, an end coefficient
< -tau_d proves p < 0 there, and other pieces are halved; tau_d is the
rounding bound at depth d.  `certify` runs it on P and reports margin
and witness in curve units, P/(eps*rho'(z)) = psi - lam - t*psi', with
the witness given as x.  `step_rows` poses the same columns' Bernstein
coefficients on equal pieces as LP rows in (lam, t): all >= 0 proves
P >= 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import _kernels
from .de_engine import z_of_x
from .ensemble import DegreeDistribution
from .errors import DomainError, NumericalFailure

_SAMPLES = np.linspace(0.0, 1.0, 4097)
_CHECK_NODES = np.linspace(0.0, 1.0, 5)
_CHECK_REL_TOL = 1e-12
_MAX_DEPTH = 52  # halvings before NumericalFailure; a piece is then 2^-52 wide


def _compose(c: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of sum_k c[k]*inner(s)^k, by Horner's rule."""
    out = np.array([c[-1]])
    for ck in c[-2::-1]:
        out = np.convolve(out, inner)
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
        x = 1.0 - _kernels._polyval(self.z_of(s), self.rho.dense)
        return np.clip(x, self.zeta_tilde, self.xi)

    def curve_gap(self, s):
        """psi - lam - t*psi' at x(s), i.e. P(s)/(eps*rho'(z(s)))."""
        weight = self.epsilon * _kernels._polyval(self.z_of(s), npoly.polyder(self.rho.dense))
        return _kernels._polyval(s, self.coeffs) / weight


def _columns(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float):
    """a = 1 - eps, b = z(zeta_tilde), and P's columns in the power basis of s.

    cols[0] is rho'(z(s))*(1 - z(s)) and cols[j], 1 <= j < d_v, is
    eps*rho'(z(s))*x(s)^j, so P = cols[0] - sum_j lam_{j+1}*cols[j] - t.
    This is the one place P is composed.
    """
    a = 1.0 - epsilon
    b = z_of_x(rho, float(zeta_tilde))
    z_s = np.array([a, b - a])
    x_s = -_compose(rho.dense, z_s)
    x_s[0] += 1.0
    drho_s = _compose(npoly.polyder(rho.dense), z_s)
    D = (drho_s.size - 1) + (x_s.size - 1) * (d_v - 1)
    cols = np.zeros((d_v, D + 1))
    const = np.convolve(drho_s, [1.0 - a, a - b])
    cols[0, :const.size] = const
    power = epsilon * drho_s
    for j in range(1, d_v):
        power = np.convolve(power, x_s)
        cols[j, :power.size] = power
    return a, b, cols


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
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not 0.0 <= zeta_tilde < xi:
        raise DomainError(zeta_tilde, 0.0, xi, what="zeta_tilde")
    a, b, cols = _columns(rho, epsilon, lam.dense.size, zeta_tilde)
    coeffs = cols[0] - lam.dense[1:] @ cols[1:]
    coeffs[0] -= t
    cp = ConstraintPolynomial(coeffs=coeffs, rho=rho, epsilon=float(epsilon), a=a, b=b,
                              zeta_tilde=float(zeta_tilde), xi=float(xi))
    _, step = _kernels.transfer_step(lam.dense, rho.dense, epsilon, cp.z_of(_CHECK_NODES))
    scale = _kernels._polyval(_CHECK_NODES, np.abs(coeffs)) + t
    resid = np.abs(_kernels._polyval(_CHECK_NODES, coeffs) - (step - t))
    if not np.all(resid <= _CHECK_REL_TOL * scale):
        raise NumericalFailure(
            f"compiled constraint disagrees with its closed form: relative "
            f"residual {float(np.max(resid / scale)):.3e} exceeds {_CHECK_REL_TOL:g}")
    return cp


@dataclass(frozen=True)
class NonnegCertificate:
    """Outcome of deciding nonnegativity on an interval.

    kind is "SturmPass" or "SturmFail", names kept from the Sturm chain that
    decided before Bernstein subdivision because reports, the CLI's JSON
    and the benchmark's checks read them.  margin is the smallest sampled
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


@functools.lru_cache(maxsize=8)
def _bernstein_tables(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The map to Bernstein form on [0, 1] and the two de Casteljau halvings.

    All three come from one Pascal table: b_k = sum_{j<=k} C(k, j)/C(D, j)*a_j,
    the left half is L_i = sum_{j<=i} C(i, j)/2^i*b_j, the right its mirror.
    They depend on D alone, so the last few degrees are cached, and the
    arrays are read-only because every caller shares them.
    """
    if D > 1020:  # C(D, D/2) and 2^-D are normal floats up to here
        raise NumericalFailure(f"degree {D} exceeds the 1020 the Bernstein tables hold")
    C = np.zeros((D + 1, D + 1))
    C[:, 0] = 1.0
    for i in range(1, D + 1):
        C[i, 1:i + 1] = C[i - 1, :i] + C[i - 1, 1:i + 1]
    left = C * np.exp2(-np.arange(D + 1.0))[:, None]
    tables = C / C[D], left, left[::-1, ::-1]
    for table in tables:
        table.flags.writeable = False
    return tables


def _halve(pieces: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Both halves of every piece (one per row), each left half first."""
    return np.stack([pieces @ left.T, pieces @ right.T], axis=1).reshape(-1, pieces.shape[1])


def step_rows(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float,
              halvings: int) -> tuple[np.ndarray, np.ndarray]:
    """P's Bernstein coefficients on 2^halvings equal pieces of s, piece by
    piece, as rows A @ (lam_2 .. lam_dv, t) <= b of unit max-norm.

    An entry below its column's conversion bound E (`nonneg_on_unit`) has
    no known sign and is set to 0; HiGHS drops entries below 1e-9, and on
    Fig. 2 such noise put its vertex 8.6e-15 in t off the polished one.
    """
    _, _, cols = _columns(rho, epsilon, d_v, zeta_tilde)
    D = cols.shape[1] - 1
    to_bern, left, right = _bernstein_tables(D)
    pieces = cols @ to_bern.T
    for _ in range(halvings):
        pieces = _halve(pieces, left, right)
    B = pieces.reshape(d_v, -1)  # column, then piece, then coefficient
    B[np.abs(B) < (3 * D + 2) * 2.0**-52 * np.abs(cols).sum(axis=1)[:, None]] = 0.0
    A = np.column_stack([B[1:].T, np.ones(B.shape[1])])
    scale = np.max(np.abs(A), axis=1)
    return A / scale[:, None], B[0] / scale


def _negative_point(a: np.ndarray) -> Optional[float]:
    """A point of [0, 1] where p < 0 is proved, or None once all pieces close."""
    if not np.isfinite(a).all():
        raise ValueError("polynomial coefficients must be finite")
    if not a.any():
        return None
    D = a.size - 1
    to_bern, left, right = _bernstein_tables(D)
    pieces = (to_bern @ a)[None, :]
    E = (3 * D + 2) * 2.0**-52 * float(np.sum(np.abs(a)))
    per_halving = (2 * D + 1) * 2.0**-52 * (float(np.max(np.abs(pieces))) + 2.0 * E)
    lo = np.zeros(1)
    depth = 0
    while True:
        tau = E + depth * per_halving
        ends = pieces[:, [0, -1]]
        i, j = np.unravel_index(int(np.argmin(ends)), ends.shape)
        if ends[i, j] < -tau:
            return float(lo[i] + j * 0.5**depth)
        is_open = pieces.min(axis=1) < -tau
        if not is_open.any():
            return None
        if depth == _MAX_DEPTH:
            raise NumericalFailure(f"Bernstein subdivision has {int(is_open.sum())} open "
                                   f"piece(s) after {_MAX_DEPTH} halvings")
        pieces, lo = _halve(pieces[is_open], left, right), lo[is_open]
        lo = np.stack([lo, lo + 0.5**(depth + 1)], axis=1).ravel()
        depth += 1


def nonneg_on_unit(coeffs) -> NonnegCertificate:
    """Decide sum_k coeffs[k] s^k >= 0 for all s in [0, 1].

    Bernstein subdivision (`_negative_point`) gives the verdict and, on a
    fail, the witness; the margin is the smallest value at `_SAMPLES`.

    The rounding bound tau_d (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3; underflow aside), with u = 2^-53,
    g_n = n*u/(1 - n*u) and A = sum|a_j|:
    * Pascal entries are exact below 2^53 and within g_D above, so the
      map's entries, all in [0, 1], are within g_{2D+1} and the halving
      entries within g_D.  A dot product of length D + 1 adds g_{D+1} of
      the sum of its absolute terms.  So the float b_k are within
      e = g_{3D+2}*A of the exact ones.
    * Every exact coefficient of every piece is a convex combination of
      the exact b_k, so none exceeds B = max|b_k| + e.  A halving's rows
      sum to 1, so one handed errors e_d adds at most g_{2D+1}*(B + e_d).
    * Hence after d halvings all errors are below
      tau_d = E + d*(2D + 1)*2u*(max|b_k| + 2E), E = (3D + 2)*2u*A; the
      factor 2 over g_n covers e_d << B and the rounding of tau_d.
    A fail thus proves p < 0 at its point, and a pass p >= -2*tau_d, d the
    deepest level reached.  E dominates: A can exceed max|b_k| by 10^5.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    s = _negative_point(a)
    margin = float(np.min(_kernels._polyval(_SAMPLES, a)))
    if s is None:
        return NonnegCertificate("SturmPass", margin)
    value = float(_kernels._polyval(s, a))
    return NonnegCertificate("SturmFail", min(margin, value), witness=s, witness_value=value)


def certify(cp: ConstraintPolynomial) -> NonnegCertificate:
    """Decide whether the compiled constraint holds on all of [zeta_tilde, xi].

    Margin and witness value are in curve units, psi - lam - t*psi'.  A
    SturmFail's witness is the abscissa x of the more negative of the
    proved point and the smallest sample: the rate designer makes the
    witness an LP row, and the most violated row is the better cut.  The
    verdict is `nonneg_on_unit`'s, but P is sampled once, for the gaps,
    not again for a margin in s units that nothing reads.
    """
    proved = _negative_point(cp.coeffs)
    gaps = cp.curve_gap(_SAMPLES)
    k = int(np.argmin(gaps))
    if proved is None:
        return NonnegCertificate("SturmPass", float(gaps[k]))
    s = proved if cp.curve_gap(proved) < gaps[k] else float(_SAMPLES[k])
    value = float(cp.curve_gap(s))
    return NonnegCertificate("SturmFail", value, witness=float(cp.x_of(s)), witness_value=value)
