"""Density evolution on the binary erasure channel.

The recursion P_l = eps * lam(1 - rho(1 - P_{l-1})) tracks the residual
erasure probability per message-passing iteration in the infinite-length
limit.  Rewriting the fixed-point condition in terms of the check-side
transfer curve

    psi(x) = (1/eps) * (1 - rho_inverse(1 - x))

lets decoding be read as a staircase bouncing between lam(x) and psi(x) on
the interval [zeta, xi], where xi = 1 - rho(1 - eps) and
zeta = 1 - rho(1 - eta) for a target residual eta.  Everything downstream
(iteration estimates, utility, design programs) consumes psi through the
`DEContext` built here.

In z = rho_inverse(1 - x) the curve needs no inversion: x = 1 - rho(z),
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)) are polynomials, so scans
that may choose their own nodes (the designers' gap scan, the utility)
sample z through `_kernels`, and the iteration estimates
(`estimators.code_estimates`) integrate over the recursion variable
P = 1 - z.  The functions here take x, so they find z
by bisection on [0, 1] (`_from_z`); rho is strictly increasing there
because its coefficients are nonnegative.  Bisection rather than Newton:
unconditional convergence matters more than speed at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import _kernels
from .ensemble import DegreeDistribution, Ensemble, rate as ensemble_rate
from .errors import DerivativeSingular, DomainError

ArrayLike = Union[float, np.ndarray]

DEFAULT_L_MAX = 1_000_000
STALL_TOL = 1e-12


@dataclass(frozen=True)
class DEContext:
    """Channel/target parameters with the derived interval [zeta, xi]."""

    rho: DegreeDistribution
    epsilon: float
    eta: float
    xi: float
    zeta: float
    inversion_tol: float = 1e-12

    @classmethod
    def create(
        cls,
        rho: DegreeDistribution,
        epsilon: float,
        eta: float,
        inversion_tol: float = 1e-12,
    ) -> "DEContext":
        epsilon = float(epsilon)
        eta = float(eta)
        if not 0.0 < epsilon < 1.0:
            raise DomainError(epsilon, 0.0, 1.0, what="epsilon")
        if not 0.0 < eta < epsilon:
            raise DomainError(eta, 0.0, epsilon, what="eta")
        xi = 1.0 - rho.eval(1.0 - epsilon)
        zeta = 1.0 - rho.eval(1.0 - eta)
        return cls(rho, epsilon, eta, xi, zeta, float(inversion_tol))


@dataclass(frozen=True)
class ReachedTarget:
    iterations: int


@dataclass(frozen=True)
class Stalled:
    at_iteration: int
    P_value: float


@dataclass(frozen=True)
class MaxIterations:
    l_max: int


TraceStatus = Union[ReachedTarget, Stalled, MaxIterations]


@dataclass(frozen=True)
class DecodingTrace:
    probs: np.ndarray
    status: TraceStatus

    @property
    def iterations(self):
        """Exact iteration count, or None when decoding did not reach eta."""
        return self.status.iterations if isinstance(self.status, ReachedTarget) else None


@dataclass(frozen=True)
class SuccessCheck:
    ok: bool
    worst_margin: float
    argmin_x: float


@dataclass(frozen=True)
class AreaGap:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def _shape(x, out):
    return float(out[0]) if np.isscalar(x) else out


def _from_z(ctx: DEContext, x: ArrayLike, hi: float, what: str, f) -> ArrayLike:
    """f(xs, z) at z = rho^{-1}(1 - x), found by bisection.

    x must lie in [0, hi]; a scalar x gives a float, an array an array.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xs.size and (xs.min() < 0.0 or xs.max() > hi):
        bad = float(xs.min() if xs.min() < 0.0 else xs.max())
        raise DomainError(bad, 0.0, hi, what=what)
    z = _kernels.bisect_increasing(ctx.rho.dense, 1.0 - xs, ctx.inversion_tol)
    return _shape(x, f(xs, z))


def _psi_of_z(ctx: DEContext, xs: np.ndarray, z: np.ndarray) -> np.ndarray:
    ys = (1.0 - z) / ctx.epsilon
    # both endpoints are exact by construction; remove the bisection residual
    ys[xs == 0.0] = 0.0
    ys[xs == ctx.xi] = 1.0
    return ys


def psi(ctx: DEContext, x: ArrayLike) -> ArrayLike:
    """Check-side transfer curve on [0, xi]; strictly increasing, psi(xi) = 1."""
    return _from_z(ctx, x, ctx.xi, "psi argument",
                   lambda xs, z: _psi_of_z(ctx, xs, z))


def psi_extended(ctx: DEContext, x: ArrayLike) -> ArrayLike:
    """psi by its defining formula on all of [0, 1] (past xi it exceeds 1).

    The area computation integrates psi - lam over [0, 1], so the curve is
    needed beyond the operating point xi.
    """
    def curve(xs, z):
        ys = _psi_of_z(ctx, xs, z)
        ys[xs == 1.0] = 1.0 / ctx.epsilon
        return ys

    return _from_z(ctx, x, 1.0, "psi argument", curve)


def psi_inverse(ctx: DEContext, y: ArrayLike) -> ArrayLike:
    """Closed-form inverse 1 - rho(1 - eps*y), mapping [0, 1] onto [0, xi]."""
    ys = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if ys.size and (ys.min() < 0.0 or ys.max() > 1.0):
        bad = float(ys.min() if ys.min() < 0.0 else ys.max())
        raise DomainError(bad, 0.0, 1.0, what="psi_inverse argument")
    return _shape(y, 1.0 - ctx.rho.eval(1.0 - ctx.epsilon * ys))


def psi_deriv(ctx: DEContext, x: ArrayLike) -> ArrayLike:
    """d psi/dx = 1 / (eps * rho'(rho_inverse(1 - x))); positive on [0, xi]."""
    def deriv(xs, z):
        slope = np.atleast_1d(npoly.polyval(z, npoly.polyder(ctx.rho.dense)))
        if slope.size and slope.min() <= ctx.inversion_tol:
            k = int(np.argmin(slope))
            raise DerivativeSingular(float(xs[k]), float(slope[k]))
        return 1.0 / (ctx.epsilon * slope)

    return _from_z(ctx, x, ctx.xi, "psi_deriv argument", deriv)


def de_trace(
    e: Ensemble,
    ctx: DEContext,
    l_max: int = DEFAULT_L_MAX,
    stall_tol: float = STALL_TOL,
) -> DecodingTrace:
    """Run the erasure recursion from P_0 = eps until P drops below eta.

    Status is Stalled when the relative decrease falls under stall_tol
    (the recursion hit a fixed point above eta), MaxIterations when the
    budget runs out first.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    probs, code = _kernels.de_run(
        e.lam.dense, ctx.rho.dense, ctx.epsilon, ctx.eta, int(l_max), stall_tol
    )
    n = len(probs) - 1
    if code == _kernels.STATUS_REACHED:
        status: TraceStatus = ReachedTarget(n)
    elif code == _kernels.STATUS_STALLED:
        status = Stalled(n, float(probs[-1]))
    else:
        status = MaxIterations(int(l_max))
    return DecodingTrace(probs=probs, status=status)


def check_successful(e: Ensemble, ctx: DEContext, grid_size: int = 4096) -> SuccessCheck:
    """Grid check of the strict decoding condition eps*lam(1-rho(1-x)) < x.

    Scans the margin x - eps*lam(1-rho(1-x)) on a uniform grid over
    (eta, eps]; ok iff the minimum is positive.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    worst, arg = _kernels.margin_scan(
        e.lam.dense, ctx.rho.dense, ctx.epsilon, ctx.eta, int(grid_size)
    )
    return SuccessCheck(ok=worst > 0.0, worst_margin=float(worst), argmin_x=float(arg))


def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    h = 0.5 ** level
    t_max = math.asinh(2.0 * 350.0 / math.pi)
    k_max = int(math.ceil(t_max / h))
    t = h * np.arange(-k_max, k_max + 1)
    s = 0.5 * math.pi * np.sinh(t)
    nodes = np.tanh(s)
    # sech(s)**2 written via exp(-|s|) so large |s| underflows to zero
    # instead of overflowing cosh**2
    sech = 2.0 * np.exp(-np.abs(s)) / (1.0 + np.exp(-2.0 * np.abs(s)))
    weights = h * (0.5 * math.pi * np.cosh(t)) * sech ** 2
    return nodes, weights


def tanh_sinh_integral(f, a: float, b: float, level: int = 6) -> float:
    """Integrate f over [a, b] with a fixed-level tanh-sinh rule.

    The substitution pushes the quadrature nodes exponentially close to the
    endpoints, so integrands with endpoint derivative singularities (psi has
    one at x = 1 when rho'(0) = 0) still converge at near machine precision.
    f must accept a vector of nodes.
    """
    nodes, weights = _tanh_sinh_nodes(level)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * np.dot(weights, f(mid + half * nodes)))


def area_gap(e: Ensemble, ctx: DEContext, R: float | None = None, level: int = 6) -> AreaGap:
    """Both sides of the area identity for the gap between psi and lam.

    lhs: quadrature of psi - lam over [0, 1] (psi by its extended formula).
    rhs: (1/eps - 1/(1-R)) * sum_i rho_i/i, closed form.  R defaults to the
    design rate of e; the identity only holds for that rate.
    """
    if R is None:
        R = ensemble_rate(e)
    lhs = tanh_sinh_integral(
        lambda xs: psi_extended(ctx, xs) - e.lam.eval(xs), 0.0, 1.0, level=level
    )
    rhs = (1.0 / ctx.epsilon - 1.0 / (1.0 - R)) * e.rho.integral()
    return AreaGap(lhs=lhs, rhs=rhs)
