"""Truncated power-series form of the transfer curve psi about x = 0.

psi(x) ~ sum_{i=2}^{M} T_i x^{i-1}.  No designer, certificate or command
uses it: `sip_compile` certifies the step constraint exactly in
z = rho^{-1}(1 - x), while this truncation is poor near the series' radius
(order 60 is off by 0.079 on [0, xi] for x^7 at eps = 0.5).  The module
stays only because the benchmark's tracer (`perfbench/spans.py`) wraps
`taylor_for` by name; it goes once that tracer no longer does.

The coefficients come from reverting the series of g(z) = 1 - rho(1 - z),
since psi(x) = (1/eps) * g^{-1}(x); the reversion runs Newton's method on
truncated series with order doubling, which is exact in the coefficients
up to the truncation order (no numerical differentiation noise).  For a
check-regular rho(x) = x^{d_c-1} it matches the generalized-binomial
closed form of 1 - (1-x)^{1/(d_c-1)} within 2.4e-14 relative (d_c 3-12,
eps 0.3-0.5, M up to 120).  Every T_i carries the 1/eps factor, so partial
sums are directly comparable to the bisection-based psi.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npoly

from .ensemble import DegreeDistribution
from .errors import ReversionSingular

DEFAULT_ORDER = 60


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


def taylor_for(rho: DegreeDistribution, epsilon: float, M: int = DEFAULT_ORDER) -> np.ndarray:
    """T_2..T_M, the array whose entry i - 2 multiplies x^{i-1}, by series reversion.

    rho is assumed normalized (rho(1) = 1); the constant term of
    g(z) = 1 - rho(1 - z) is pinned to zero, so a sum-to-one defect in rho
    shifts the modeled curve by that defect.  Raises ValueError for M < 3
    and ReversionSingular when rho'(1) <= 1e-12.
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
    g[0] = 0.0
    return _revert(g, M)[1:] / epsilon
