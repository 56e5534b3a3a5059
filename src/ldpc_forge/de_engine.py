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
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)) are polynomials.  Whatever
may choose its own nodes works there through `_kernels`: the gap scans
and the utility sample z, the utility designer's LP rows are Bernstein
coefficients in z, and the iteration estimates and the min-iteration
designer integrate over the recursion variable P = 1 - z.
Whatever is handed x finds z through `z_of_x`, the package's one
inversion: Newton's method on rho(z) = 1 - x from z = 1.  rho has
nonnegative coefficients, so on [0, 1] it is increasing and convex, and
rho(1) - (1 - x) = x >= 0; from z = 1 every Newton iterate therefore
stays at or above the root and falls monotonically to it (Fourier's
condition), so convergence is as unconditional as bisection's, in 3 to
11 steps a point on the fixtures' psi grids rather than about 40
halvings.  psi and psi', the rate LP's rows and single anchors such as
z(zeta_tilde) go through it; an anchor runs on Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import _kernels
from .ensemble import DegreeDistribution, Ensemble
from .errors import DerivativeSingular, DomainError

ArrayLike = Union[float, np.ndarray]

DEFAULT_L_MAX = 1_000_000
STALL_TOL = 1e-12
INVERSION_TOL = 1e-12  # bound on the inversion's |rho(z) - (1 - x)|; psi_deriv's least slope


@dataclass(frozen=True)
class DEContext:
    """Channel/target parameters with the derived interval [zeta, xi]."""

    rho: DegreeDistribution
    epsilon: float
    eta: float
    xi: float
    zeta: float

    @classmethod
    def create(cls, rho: DegreeDistribution, epsilon: float, eta: float) -> "DEContext":
        epsilon = float(epsilon)
        eta = float(eta)
        if not 0.0 < epsilon < 1.0:
            raise DomainError(epsilon, 0.0, 1.0, what="epsilon")
        if not 0.0 < eta < epsilon:
            raise DomainError(eta, 0.0, epsilon, what="eta")
        xi = 1.0 - rho.eval(1.0 - epsilon)
        zeta = 1.0 - rho.eval(1.0 - eta)
        return cls(rho, epsilon, eta, xi, zeta)


@dataclass(frozen=True)
class DecodingTrace:
    """P_0 .. P_n of one recursion run and how it ended.

    ``probs`` is a view of the buffer the recursion filled
    (`_kernels.de_run`), not a copy of it.  ``status`` is "ReachedTarget",
    "Stalled" or "MaxIterations"; n = len(probs) - 1 is the step it
    reached eta at, stalled at, or was capped at (l_max).
    """

    probs: np.ndarray
    status: str

    @property
    def iterations(self):
        """Exact iteration count, or None when decoding did not reach eta."""
        return len(self.probs) - 1 if self.status == "ReachedTarget" else None


def _shape(x, out):
    return float(out[0]) if np.isscalar(x) else out


def z_of_x(rho: DegreeDistribution, x: ArrayLike) -> ArrayLike:
    """z = rho^{-1}(1 - x) for x in [0, 1], by monotone Newton from z = 1.

    x = 0 maps to z = 1 exactly.  A scalar x gives a float and is inverted
    on Python floats; an array gives an array, inverted as one.
    """
    if np.isscalar(x):
        return 1.0 if x == 0.0 else float(_kernels.bisect_increasing(rho.dense, (1.0 - x,))[0])
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = _kernels.bisect_increasing(rho.dense, 1.0 - xs)
    z[xs == 0.0] = 1.0
    return z


def _on_domain(ctx: DEContext, x: ArrayLike, what: str) -> np.ndarray:
    """x as an array, after checking that it lies in [0, xi]."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xs.size and (xs.min() < 0.0 or xs.max() > ctx.xi):
        bad = float(xs.min() if xs.min() < 0.0 else xs.max())
        raise DomainError(bad, 0.0, ctx.xi, what=what)
    return xs


def psi(ctx: DEContext, x: ArrayLike) -> ArrayLike:
    """Check-side transfer curve on [0, xi]; strictly increasing, psi(xi) = 1."""
    xs = _on_domain(ctx, x, "psi argument")
    ys = (1.0 - z_of_x(ctx.rho, xs)) / ctx.epsilon
    # psi(xi) = 1 by construction; remove the inversion's rounding
    ys[xs == ctx.xi] = 1.0
    return _shape(x, ys)


def psi_deriv(ctx: DEContext, x: ArrayLike) -> ArrayLike:
    """d psi/dx = 1 / (eps * rho'(rho_inverse(1 - x))); positive on [0, xi]."""
    xs = _on_domain(ctx, x, "psi_deriv argument")
    slope = npoly.polyval(z_of_x(ctx.rho, xs), npoly.polyder(ctx.rho.dense))
    if slope.size and slope.min() <= INVERSION_TOL:
        k = int(np.argmin(slope))
        raise DerivativeSingular(float(xs[k]), float(slope[k]))
    return _shape(x, 1.0 / (ctx.epsilon * slope))


def de_trace(
    e: Ensemble,
    ctx: DEContext,
    l_max: int = DEFAULT_L_MAX,
) -> DecodingTrace:
    """Run the erasure recursion from P_0 = eps until P drops below eta.

    Status is Stalled when the relative decrease falls under `STALL_TOL`
    (the recursion hit a fixed point above eta), MaxIterations when the
    budget runs out first.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    probs, status = _kernels.de_run(
        e.lam.dense, ctx.rho.dense, ctx.epsilon, ctx.eta, int(l_max), STALL_TOL
    )
    return DecodingTrace(probs=probs, status=status)

