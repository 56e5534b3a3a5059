"""Truncated power-series form of the transfer curve psi about x = 0.

psi(x) ~ sum_{i=2}^{M} T_i x^{i-1}.  No designer, certificate or command
uses it: `sip_compile` certifies the step constraint exactly in
z = rho^{-1}(1 - x), while this truncation is poor near the series' radius
(order 60 is off by 0.079 on [0, xi] for x^7 at eps = 0.5).  The module
stays only because the benchmark's tracer (`perfbench/spans.py`) wraps
`taylor_for` by name; it goes once that tracer no longer does.

For a check-regular rho(x) = x^{d_c-1} the coefficients come from the
generalized binomial theorem applied to 1 - (1-x)^{1/(d_c-1)}.  For
general rho they come from reverting the series of g(z) = 1 - rho(1 - z),
since psi(x) = (1/eps) * g^{-1}(x); the reversion runs Newton's method on
truncated series with order doubling, which is exact in the coefficients
up to the truncation order (no numerical differentiation noise).

All T_i carry the 1/eps factor, so partial sums are directly comparable to
the bisection-based psi.  The `epsilon_included` flag records this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import numpy.polynomial.polynomial as npoly

from .ensemble import DegreeDistribution
from .errors import ReversionSingular

ArrayLike = Union[float, np.ndarray]

DEFAULT_ORDER = 60


@dataclass(frozen=True, eq=False)
class TaylorSeries:
    """Coefficients T_2..T_M of the expansion sum_i T_i x^{i-1}."""

    coeffs: np.ndarray
    epsilon_included: bool = True
    _dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64).copy()
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a 1-D sequence T_2..T_M")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        dense = np.zeros(c.size + 1)
        dense[1:] = c
        dense.setflags(write=False)
        object.__setattr__(self, "_dense", dense)

    @property
    def taylor_order(self) -> int:
        """M: the largest node degree represented (exponent M-1)."""
        return self.coeffs.size + 1

    @property
    def dense(self) -> np.ndarray:
        """Read-only exponent-indexed coefficients, dense[k] multiplies x**k."""
        return self._dense

    def t(self, i: int) -> float:
        if not 2 <= i <= self.taylor_order:
            raise IndexError(f"T_{i} outside stored range 2..{self.taylor_order}")
        return float(self.coeffs[i - 2])

    def eval(self, x: ArrayLike) -> ArrayLike:
        out = npoly.polyval(x, self._dense)
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, x: ArrayLike) -> ArrayLike:
        out = npoly.polyval(x, npoly.polyder(self._dense))
        return float(out) if np.isscalar(x) else out

    def truncated(self, order: int) -> "TaylorSeries":
        if not 3 <= order <= self.taylor_order:
            raise ValueError(f"order must lie in 3..{self.taylor_order}")
        return TaylorSeries(self.coeffs[: order - 1], self.epsilon_included)


def binom_frac(omega: float, i: int) -> float:
    """Generalized binomial coefficient (omega choose i) for real omega."""
    if i < 0:
        raise ValueError("i must be >= 0")
    out = 1.0
    for k in range(i):
        out *= (omega - k) / (k + 1)
    return out


def taylor_regular(d_c: int, epsilon: float, M: int) -> TaylorSeries:
    """Closed-form coefficients for check-regular rho(x) = x^{d_c-1}.

    T_i = (1/eps) * (omega choose i-1) * (-1)^i with omega = 1/(d_c-1);
    every term is positive because the alternating signs of the fractional
    binomial cancel the (-1)^i.
    """
    if d_c < 3:
        raise ValueError("d_c must be >= 3")
    if M < 3:
        raise ValueError("M must be >= 3")
    omega = 1.0 / (d_c - 1)
    ts = np.empty(M - 1)
    term = omega  # binom_frac(omega, 1)
    ts[0] = term / epsilon  # i = 2: sign (-1)^2 = +1
    for i in range(3, M + 1):
        k = i - 1
        term *= (omega - (k - 1)) / k
        ts[i - 2] = term * (-1.0) ** i / epsilon
    return TaylorSeries(ts)


def _truncate(a: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    m = min(a.size, n)
    out[:m] = a[:m]
    return out


def _mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return _truncate(np.convolve(a, b), n)


def _series_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    # Newton doubling for 1/a as a power series; needs a[0] != 0
    r = np.array([1.0 / a[0]])
    k = 1
    while k < n:
        k = min(2 * k, n)
        correction = -_mul(_truncate(a, k), _truncate(r, k), k)
        correction[0] += 2.0
        r = _mul(_truncate(r, k), correction, k)
    return _truncate(r, n)


def _compose(poly: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    # Horner evaluation of a plain polynomial at a series with s[0] = 0
    res = np.array([poly[-1]])
    for c in poly[-2::-1]:
        res = _mul(res, s, n)
        res[0] += c
    return _truncate(res, n)


def _revert(g: np.ndarray, n: int) -> np.ndarray:
    """Series s with g(s(x)) = x + O(x^n), for g with g[0]=0, g[1]>0."""
    gp = npoly.polyder(g)
    s = np.array([0.0, 1.0 / g[1]])
    k = 2
    while k < n:
        k = min(2 * k, n)
        s = _truncate(s, k)
        residual = _compose(g, s, k)
        residual[1] -= 1.0
        s = _truncate(s - _mul(residual, _series_reciprocal(_compose(gp, s, k), k), k), k)
    return _truncate(s, n)


def taylor_general(rho: DegreeDistribution, epsilon: float, M: int) -> TaylorSeries:
    """Expansion coefficients for arbitrary rho via series reversion.

    rho is assumed normalized (rho(1) = 1); the constant term of
    g(z) = 1 - rho(1 - z) is pinned to zero, so a sum-to-one defect in rho
    shifts the modeled curve by that defect.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    slope = rho.eval_deriv(1.0)
    if slope <= 1e-12:
        raise ReversionSingular(slope)
    # build g(z) = 1 - rho(1 - z) as an ascending coefficient array
    c = rho.dense
    g = np.zeros(c.size)
    w = np.array([1.0])  # (1 - z)^k
    for k in range(c.size):
        if c[k] != 0.0:
            g[: w.size] -= c[k] * w
        w = np.convolve(w, [1.0, -1.0])
    g[0] += 1.0
    g[0] = 0.0
    s = _revert(g, M)
    return TaylorSeries(s[1:] / epsilon)


def taylor_for(rho: DegreeDistribution, epsilon: float, M: int = DEFAULT_ORDER) -> TaylorSeries:
    """Dispatch to the closed form for monomial rho, reversion otherwise."""
    if len(rho.degrees) == 1:
        return taylor_regular(rho.degrees[0], epsilon, M)
    return taylor_general(rho, epsilon, M)

