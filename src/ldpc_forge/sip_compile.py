"""Compile the step constraint psi - lam >= t*psi' on [zeta_tilde, xi] into
one exact polynomial inequality, and certify it.

In z = rho^{-1}(1 - x) the curve needs no inversion: x = 1 - rho(z),
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)).  Multiplying the constraint
by eps*rho'(z) > 0 turns it into

    P(z) = rho'(z)*[(1 - z) - eps*lam(1 - rho(z))] - t >= 0

on z in [1 - eps, z(zeta_tilde)], where x runs from xi down to
zeta_tilde.  P is a polynomial of degree D = (d_c - 2) + (d_c - 1)(d_v - 1),
affine in (lam, t), with no truncation anywhere.  `_columns` writes it
in s on [0, 1] through z = a + (b - a)*s, a = 1 - eps and
b = z(zeta_tilde), as one Bernstein-form column per unknown, adding only
nonnegative terms (Farouki & Rajan, CAGD 1988): the only composition of
P.  `compile_constraint` combines the columns for one (lam, t) with
their rounding bound and checks them against the closed form of
`_kernels.transfer_step` at s = 0, 1/4, 1/2, 3/4 and 1.

`_negative_point` decides p(s) >= 0 on [0, 1], p in Bernstein form, by
subdivision (Lane & Riesenfeld, BIT 1981; Garloff 1986): on a piece, p
lies within its Bernstein coefficients and equals the end ones at the
ends, so a piece whose coefficients are all >= -tau_d closes, an end
coefficient < -tau_d proves p < 0 there, and other pieces are halved;
tau_d is the rounding bound at depth d.  `certify` runs it on P and
reports margin and witness in curve units, psi - lam - t*psi' sampled in
closed form (`_kernels.transfer_gap_scan`), the witness given as x.
`step_rows` poses the same columns' Bernstein coefficients on equal
pieces as LP rows in (lam, t): all >= 0 proves P >= 0.
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

_SAMPLES = np.linspace(0.0, 1.0, 2**12 + 1)  # certify's margin is the least gap at these s
_CHECK_NODES = np.linspace(0.0, 1.0, 5)  # the piece ends after two halvings
_CHECK_REL_TOL = 1e-12
_MAX_DEPTH = 52  # halvings before NumericalFailure; a piece is then 2^-52 wide


@functools.lru_cache(maxsize=8)
def _bernstein_tables(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pascal table to row D and the two de Casteljau halvings of degree D.

    The left half of a piece is L_i = sum_{j<=i} C(i, j)/2^i*b_j, the right
    its mirror.  They depend on D alone, so the last few degrees are
    cached, and the arrays are read-only because every caller shares them.
    """
    if D > 1020:  # C(D, D/2) and 2^-D are normal floats up to here
        raise NumericalFailure(f"degree {D} exceeds the 1020 the Bernstein tables hold")
    C = np.zeros((D + 1, D + 1))
    C[:, 0] = 1.0
    for i in range(1, D + 1):
        C[i, 1:i + 1] = C[i - 1, :i] + C[i - 1, 1:i + 1]
    left = C * np.exp2(-np.arange(D + 1.0))[:, None]
    tables = C, left, left[::-1, ::-1]
    for table in tables:
        table.flags.writeable = False
    return tables


def _halve(pieces: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Both halves of every piece (one per row), each left half first."""
    return np.stack([pieces @ left.T, pieces @ right.T], axis=1).reshape(-1, pieces.shape[1])


def _pieces(b: np.ndarray, halvings: int) -> np.ndarray:
    """Each row's Bernstein coefficients on 2^halvings equal pieces, row by row."""
    _, left, right = _bernstein_tables(b.shape[1] - 1)
    for _ in range(halvings):
        b = _halve(b, left, right)
    return b


def _values(b: np.ndarray, halvings: int) -> np.ndarray:
    """p at s = k/2^halvings, k = 0 .. 2^halvings: the ends of as many pieces."""
    pieces = _pieces(b[None, :], halvings)
    return np.append(pieces[:, 0], pieces[-1, -1])


def _compose(c: np.ndarray, z: np.ndarray, pascal: np.ndarray) -> np.ndarray:
    """Scaled Bernstein coefficients C(m, k)*b_k of sum_k c[k]*z(s)^k, by Horner's rule.

    In scaled form a product is a convolution, a constant c of degree m
    is c times Pascal row m, and the linear z is [z(0), z(1)].
    """
    out = np.array([c[-1]])
    for m, ck in enumerate(c[-2::-1].tolist(), start=1):
        out = np.convolve(out, z)
        out += ck * pascal[m, :m + 1]
    return out


def _columns(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float):
    """a = 1 - eps, b = z(zeta_tilde), P's columns in Bernstein form of degree D, and M.

    cols[0] is rho'(z(s))*(1 - z(s)) and cols[j], 1 <= j < d_v, is
    eps*rho'(z(s))*x(s)^j, so P = cols[0] - sum_j lam_{j+1}*cols[j] - t.
    rho and rho' have nonnegative coefficients and a, b, 1 - a, 1 - b >= 0,
    so only x = 1 - rho(z) subtracts, and every exact column coefficient
    lies in [0, M], M = eps*rho'(b).  A column is raised to degree D by a
    convolution with a Pascal row, and the last step divides by row D.
    """
    a = 1.0 - epsilon
    b = z_of_x(rho, float(zeta_tilde))
    n = rho.dense.size - 1
    D = n * d_v - 1
    pascal, _, _ = _bernstein_tables(D)
    z = np.array([a, b])
    x = pascal[n, :n + 1] - _compose(rho.dense, z, pascal)
    drho = _compose(npoly.polyder(rho.dense), z, pascal)
    terms = [np.convolve(drho, [1.0 - a, 1.0 - b])]
    power = epsilon * drho
    for _ in range(1, d_v):
        power = np.convolve(power, x)
        terms.append(power)
    cols = np.array([np.convolve(p, pascal[D + 1 - p.size, :D + 2 - p.size]) for p in terms])
    return a, b, cols / pascal[D], epsilon * float(drho[-1])


@dataclass(frozen=True, eq=False)
class ConstraintPolynomial:
    """P in s on [0, 1] for (lam, t): Bernstein coefficients of degree D, each
    within `error` of the exact one; z = a + (b - a)*s, s = 0 is x = xi."""

    coeffs: np.ndarray
    error: float
    lam: DegreeDistribution
    t: float
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


def compile_constraint(
    lam: DegreeDistribution,
    t: float,
    rho: DegreeDistribution,
    epsilon: float,
    zeta_tilde: float,
    xi: float,
) -> ConstraintPolynomial:
    """Bernstein coefficients in s of P for (lam, t) on [zeta_tilde, xi].

    lam may be an arbitrary candidate (negative coefficients allowed).
    With S = M*(1 + sum_j |lam_j|) + t (`_columns`' M), raises
    NumericalFailure when the coefficients miss the closed form at the
    check nodes by more than `_CHECK_REL_TOL`*S.  `error` = (12D + 24)*2u*S,
    u = 2^-53, bounds every coefficient's rounding (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3; g_n = n*u/(1 - n*u),
    n the degree of rho): Pascal row i is within g_i, Horner's rule within
    g_{3n+1}, so x within g_{4n+3} of row n; the j-th power column within
    g_{3n+j(5n+4)} of M, degree raising and the last division add
    g_{2D+3}, so all columns are within g_{11(D+1)} of M, and combining
    them adds g_{d_v+1} of S.
    """
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not 0.0 <= zeta_tilde < xi:
        raise DomainError(zeta_tilde, 0.0, xi, what="zeta_tilde")
    a, b, cols, M = _columns(rho, epsilon, lam.dense.size, zeta_tilde)
    coeffs = cols[0] - lam.dense[1:] @ cols[1:] - t
    S = M * (1.0 + float(np.sum(np.abs(lam.dense[1:])))) + t
    cp = ConstraintPolynomial(coeffs, 12 * (coeffs.size + 1) * 2.0**-52 * S, lam, float(t), rho,
                              float(epsilon), a, b, float(zeta_tilde), float(xi))
    _, step = _kernels.transfer_step(lam.dense, rho.dense, epsilon, cp.z_of(_CHECK_NODES))
    resid = float(np.max(np.abs(_values(coeffs, 2) - (step - t)))) / S
    if not resid <= _CHECK_REL_TOL:
        raise NumericalFailure(f"compiled constraint disagrees with its closed form: relative "
                               f"residual {resid:.3e} exceeds {_CHECK_REL_TOL:g}")
    return cp


@dataclass(frozen=True)
class NonnegCertificate:
    """Outcome of deciding nonnegativity on an interval.

    kind is "SturmPass" or "SturmFail", names kept from the Sturm chain that
    decided before Bernstein subdivision because reports, the CLI's JSON
    and the benchmark's checks read them.  margin is the smallest sampled
    curve gap psi - lam - t*psi'; on failure witness is the x of that
    gap, which is strictly negative.
    """

    kind: str
    margin: float
    witness: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.kind == "SturmPass"

    @property
    def witness_value(self) -> Optional[float]:
        """The gap at the witness, the margin; None on a pass."""
        return None if self.passed else self.margin


def step_rows(rho: DegreeDistribution, epsilon: float, d_v: int, zeta_tilde: float,
              halvings: int) -> tuple[np.ndarray, np.ndarray]:
    """P's Bernstein coefficients on 2^halvings equal pieces of s, piece by
    piece, as rows A @ (lam_2 .. lam_dv, t) <= b of unit max-norm."""
    _, _, cols, _ = _columns(rho, epsilon, d_v, zeta_tilde)
    B = _pieces(cols, halvings).reshape(d_v, -1)  # column, then piece, then coefficient
    A = np.column_stack([B[1:].T, np.ones(B.shape[1])])
    scale = np.max(np.abs(A), axis=1)
    return A / scale[:, None], B[0] / scale


def _negative_point(b: np.ndarray, error: float) -> Optional[tuple[float, float]]:
    """(s, p(s)) where p < 0 is proved, or None once all pieces close.

    b are p's Bernstein coefficients on [0, 1], each within E = `error` of
    the exact one (E = 0 for exact input).  The bound tau_d at which a
    piece closes or fails at depth d holds every rounding: each exact piece
    coefficient is a convex combination of the b_k, so at most
    B = max|b_k| + E, and a halving (entries within g_D, rows summing to 1)
    adds g_{2D+1}*(B + e_d) to errors e_d; so after d halvings they are
    below tau_d = E + d*(2D + 1)*2u*(max|b_k| + 2E).  A fail proves p < 0
    at its point, a pass p >= -2*tau_d at the deepest d.
    """
    if not np.isfinite(b).all():
        raise ValueError("polynomial coefficients must be finite")
    if not b.any():
        return None
    D = b.size - 1
    _, left, right = _bernstein_tables(D)
    per_halving = (2 * D + 1) * 2.0**-52 * (float(np.max(np.abs(b))) + 2.0 * error)
    pieces, lo, depth = b[None, :], np.zeros(1), 0
    while True:
        tau = error + depth * per_halving
        ends = pieces[:, [0, -1]]
        i, j = np.unravel_index(int(np.argmin(ends)), ends.shape)
        if ends[i, j] < -tau:
            return float(lo[i] + j * 0.5**depth), float(ends[i, j])
        is_open = pieces.min(axis=1) < -tau
        if not is_open.any():
            return None
        if depth == _MAX_DEPTH:
            raise NumericalFailure(f"Bernstein subdivision has {int(is_open.sum())} open "
                                   f"piece(s) after {_MAX_DEPTH} halvings")
        pieces, lo = _halve(pieces[is_open], left, right), lo[is_open]
        lo = np.stack([lo, lo + 0.5**(depth + 1)], axis=1).ravel()
        depth += 1


def certify(cp: ConstraintPolynomial) -> NonnegCertificate:
    """Decide whether the compiled constraint holds on all of [zeta_tilde, xi].

    The verdict is `_negative_point`'s subdivision of P with E = its
    `error`.  Margin and witness value are psi - lam - t*psi' in closed
    form at `_SAMPLES` and a proved negative point; a SturmFail's witness
    is the x of the more negative, since the rate designer makes it an LP
    row and the most violated row is the better cut.
    """
    proved = _negative_point(cp.coeffs, cp.error)
    s = _SAMPLES if proved is None else np.append(_SAMPLES, proved[0])
    # positional: the benchmark tracer counts the points at position 4
    xs, gaps = _kernels.transfer_gap_scan(cp.lam.dense, cp.rho.dense, cp.epsilon, cp.t,
                                          cp.z_of(s))
    k = int(np.argmin(gaps))
    if proved is None:
        return NonnegCertificate("SturmPass", float(gaps[k]))
    # clipped: b carries the bisection residual of z(zeta_tilde)
    x = float(np.clip(xs[k], cp.zeta_tilde, cp.xi))
    return NonnegCertificate("SturmFail", float(gaps[k]), witness=x)
