"""Iteration-count estimates and the bottleneck utility of a code.

Decoding bounces between lam and the check-side curve psi on
[zeta, xi] (see de_engine).  The paper's programs need three things of a
code, and none of them inverts rho on a grid:

* `code_estimates` - approx_N, the integral of psi'/(psi - lam) over
  [zeta, xi], and its floor.  In the recursion variable P,
  x = 1 - rho(1 - P) runs from zeta to xi as P runs from eta to eps,
  psi = P/eps and psi' dx = dP/eps, so the integral is int_eta^eps dP/g(P)
  with g(P) = P - eps*lam(1 - rho(1 - P)) the recursion's own step.  It is
  taken on the log-P nodes the min-iteration designer also minimizes over,
  and floored by Cauchy-Schwarz on those nodes.
* `utility` - the worst-case step size min (psi - lam)/psi' that a design
  should maximize, scanned in z = rho^{-1}(1 - x) and polished by two
  parabolic steps on the same vectorized kernel.
* the exact count is the recursion itself (`de_engine.de_trace`).

`CurvePair`, `code_curves` and `approx_iterations` remain as the x-domain
reference that tests compare against: the integral of f2'/(f2 - f1) for a
lower curve f1 and an upper curve f2 on [a, b], each given with its
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .de_engine import DEContext, psi, psi_deriv, z_of_x
from .ensemble import DegreeDistribution, Ensemble
from .errors import DegenerateGap, DomainError

CODE_QUAD_POINTS = 10_000  # log-P midpoint nodes of code_estimates
UTILITY_GRID_N = 4096  # z nodes of the utility scan


@dataclass(frozen=True)
class CurvePair:
    """Two increasing curves f1 < f2 on [a, b] and their derivatives.

    Callables must accept numpy arrays.
    """

    f1: Callable
    f2: Callable
    a: float
    b: float
    f1_deriv: Callable
    f2_deriv: Callable

    def validate(self, grid_n: int = 257) -> None:
        xs = np.linspace(self.a, self.b, grid_n)
        gaps = self.f2(xs) - self.f1(xs)
        k = int(np.argmin(gaps))
        if gaps[k] <= 0.0:
            raise DegenerateGap(float(xs[k]), float(gaps[k]))
        for name, d in (("f1", self.f1_deriv), ("f2", self.f2_deriv)):
            slopes = np.atleast_1d(d(xs))
            if slopes.min() <= 0.0:
                j = int(np.argmin(slopes))
                raise ValueError(
                    f"{name} is not increasing: slope {slopes[j]:.3e} at x={xs[j]:.6g}"
                )


def approx_iterations(p: CurvePair, quad_points: int = 10_000) -> float:
    """Midpoint quadrature of f2'/(f2 - f1) over [a, b].

    Midpoint rather than an endpoint rule: tight designs have gaps
    approaching zero at b, which an endpoint evaluation would hit head-on.
    """
    if quad_points < 16:
        raise ValueError("quad_points must be >= 16")
    dx = (p.b - p.a) / quad_points
    xs = p.a + dx * (np.arange(quad_points) + 0.5)
    gaps = p.f2(xs) - p.f1(xs)
    k = int(np.argmin(gaps))
    if gaps[k] <= 0.0:
        raise DegenerateGap(float(xs[k]), float(gaps[k]))
    return float(np.sum(p.f2_deriv(xs) / gaps) * dx)


@dataclass(frozen=True)
class UtilityResult:
    value: float
    argmin_x: float


def utility(
    lam: DegreeDistribution,
    ctx: DEContext,
    zeta_tilde: Optional[float] = None,
) -> UtilityResult:
    """Worst-case step size min (psi - lam)/psi' over [zeta_tilde, xi].

    The step is scanned on `UTILITY_GRID_N` points uniform in
    z = rho^{-1}(1 - x), from z(zeta_tilde) down to 1 - eps, where it is the
    polynomial rho'(z)*((1 - z) - eps*lam(1 - rho(z))); only z(zeta_tilde)
    takes a bisection.  Negative values flag an infeasible lam (it crosses psi).
    The grid minimum is polished, with the same kernel, by the vertex of the
    parabola through it and its two neighbours (the index clamped at the
    ends), kept inside the two cells around it.  The vertex and its
    neighbours at a spacing 1e3 times smaller give the next parabola, once
    more; a curvature that is not positive stops the polish, and so does a
    second vertex kept at the same bound as the first, whose triple is
    already evaluated.  The least step it evaluates is kept where it is
    <= the grid minimum, so the reported bottleneck location carries no
    grid bias.
    """
    if zeta_tilde is None:
        zeta_tilde = 0.5 * ctx.zeta
    if not 0.0 <= zeta_tilde < ctx.xi:
        raise DomainError(zeta_tilde, 0.0, ctx.xi, what="zeta_tilde")
    zs = np.linspace(z_of_x(ctx.rho, zeta_tilde), 1.0 - ctx.epsilon, UTILITY_GRID_N)
    xs, vals = _kernels.transfer_step(lam.dense, ctx.rho.dense, ctx.epsilon, zs)
    k = int(np.argmin(vals))
    best = UtilityResult(value=float(vals[k]), argmin_x=float(xs[k]))

    lo, hi = zs[min(k + 1, zs.size - 1)], zs[max(k - 1, 0)]
    h = 1e-3 * (zs[0] - zs[1])
    j = min(max(k, 1), zs.size - 2)
    z3, f3 = zs[j - 1:j + 2], vals[j - 1:j + 2]
    center = None
    for _ in range(2):
        curvature = f3[0] - 2.0 * f3[1] + f3[2]
        if not curvature > 0.0:
            break
        vertex = z3[1] + 0.5 * (z3[2] - z3[1]) * (f3[0] - f3[2]) / curvature
        previous, center = center, min(max(vertex, lo + h), hi - h)
        if center == previous:
            # clipped to the same bound again: the same triple, already kept
            break
        # the clip only takes back a rounding of center +- h past an end
        z3 = np.clip(center + h * np.array([-1.0, 0.0, 1.0]), lo, hi)
        x3, f3 = _kernels.transfer_step(lam.dense, ctx.rho.dense, ctx.epsilon, z3)
        i = int(np.argmin(f3))
        if f3[i] <= best.value:
            best = UtilityResult(value=float(f3[i]), argmin_x=float(x3[i]))
    return best


@dataclass(frozen=True)
class CodeEstimates:
    approx_N: float
    lower_bound: float


def code_estimates(e: Ensemble, ctx: DEContext) -> CodeEstimates:
    """approx_N and its floor lower_bound.

    approx_N is int_eta^eps dP/g(P) by the midpoint rule in u = log P over
    CODE_QUAD_POINTS nodes (`_kernels.log_p_nodes`), where the integrand
    P/g(P) stays bounded as P -> 0.  lower_bound is the Cauchy-Schwarz
    floor of approx_N on the same nodes, (ln(eps/eta))^2 / sum (g/P)*du, reached when the step g/P is constant
    in u.  Raises DegenerateGap, in curve units (psi - lam = g/eps) at x,
    when g <= 0 at a node.
    """
    eps, eta = ctx.epsilon, ctx.eta
    ps, du = _kernels.log_p_nodes(eta, eps, CODE_QUAD_POINTS)
    gaps = _kernels.recursion_gap(e.lam.dense, ctx.rho.dense, eps, ps)
    k = int(np.argmin(gaps))
    if gaps[k] <= 0.0:
        raise DegenerateGap(1.0 - ctx.rho.eval(1.0 - float(ps[k])), float(gaps[k]) / eps)
    approx = float(np.sum(ps / gaps) * du)
    bound = math.log(eps / eta) ** 2 / float(np.sum(gaps / ps) * du)
    return CodeEstimates(approx_N=approx, lower_bound=bound)


def code_curves(e: Ensemble, ctx: DEContext) -> CurvePair:
    """The (lam, psi) pair on [zeta, xi] with analytic derivatives."""
    return CurvePair(
        f1=e.lam.eval,
        f2=lambda x: psi(ctx, x),
        a=ctx.zeta,
        b=ctx.xi,
        f1_deriv=e.lam.eval_deriv,
        f2_deriv=lambda x: psi_deriv(ctx, x),
    )
