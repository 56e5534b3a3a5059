"""Low-level numeric loops over polynomial coefficient arrays.

The erasure-probability recursion P_l = eps*lam(1 - rho(1 - P_{l-1})),
a batched inversion of the check polynomial, and the closed-form scans
work directly on coefficient arrays.

The recursion runs on Python floats: each step evaluates rho and lam by
Horner over `tolist()` coefficients, highest power first (y = y*u + c),
which is `np.polyval`'s own operation order, so the probabilities are
bit-identical to a polyval loop at a fraction of the per-step cost.

`recursion_gap` is the recursion's step g(P) = P - eps*lam(1 - rho(1 - P)).
It is positive on (eta, eps] exactly when decoding succeeds, and in P
the iteration estimate needs no inversion:
with x = 1 - rho(1 - P), psi = P/eps and psi' dx = dP/eps, so
psi - lam = g/eps and the estimate is int dP/g.  `log_p_nodes` gives the
log-P midpoint nodes on which both `estimators.code_estimates` and the
min-iteration designer take that integral.

The step constraint psi - lam >= t*psi' needs no inversion when it is
sampled in z = rho^{-1}(1 - x) = 1 - P instead of x: there x = 1 - rho(z),
psi = (1 - z)/eps and psi' = 1/(eps*rho'(z)) are plain polynomials.
`transfer_gap_scan` evaluates the constraint gap and `transfer_step` the
step size (psi - lam)/psi' on an array of z, both through `_transfer`:
`sip_compile.certify` samples its margin and witness with the first, and
`estimators.utility` scans and polishes the step with the second.
`bisect_increasing` is the inversion behind `de_engine.z_of_x`, for
callers that are handed x: Newton's method from z = 1, which falls
monotonically to the root of an increasing convex polynomial.  It steps a
whole array of targets at once; a single target is stepped on Python
floats by `_horner` with the same start, operations and stop, so both
give the same z to the bit, and an anchor is not stepped through numpy.

Array evaluations of a polynomial go through `_polyval`: `npoly.polyval`'s
operations in its order, so the same bits, with the accumulator in place.

Array conventions: polynomial coefficient arrays are dense, float64, and
exponent-indexed ascending, i.e. ``c[k]`` multiplies ``x**k``.
"""

from __future__ import annotations

import math
from array import array

import numpy as np
import numpy.polynomial.polynomial as npoly

# There is no compiled lane; environment records still report this flag.
USING_NUMBA = False

BISECT_MAX_ITER = 100  # Newton steps before `bisect_increasing` stops a target


def _horner(coeffs, u):
    """Polynomial with highest-power-first ``coeffs`` at the float ``u``."""
    y = 0.0
    for c in coeffs:
        y = y * u + c
    return y


def _polyval(x, c):
    """``npoly.polyval(x, c)`` for 1-D ``c``, bit for bit, in place.

    Horner from the highest power, c[-1] + x*0 and then y*x + c[k], the
    operations of numpy's own loop in its order; the accumulator is
    updated in place, so an array ``x`` costs one buffer, not two per term.
    """
    y = x * 0.0
    y += c[-1]
    for ck in c[-2::-1].tolist():
        y *= x
        y += ck
    return y


def de_run(lam_c, rho_c, eps, eta, l_max, stall_tol):
    """Run the erasure-probability recursion until target, stall, or cap.

    Returns ``(probs, status)`` where ``probs`` holds P_0 .. P_n and
    ``status`` names how the run ended: "ReachedTarget", "Stalled" or
    "MaxIterations".  ``probs`` is a float64 view of the ``array('d')``
    the recursion appends to, not a copy, so a long trace is held once.
    Both Horner loops are written out in the recursion, in `_horner`'s
    operation order.
    """

    lam_d = _descending(lam_c)
    rho_d = _descending(rho_c)
    eps = float(eps)
    eta = float(eta)
    stall_tol = float(stall_tol)
    p = eps
    probs = array("d", [p])
    status = "MaxIterations"
    for _ in range(int(l_max)):
        u = 1.0 - p
        y = 0.0
        for c in rho_d:
            y = y * u + c
        u = 1.0 - y
        y = 0.0
        for c in lam_d:
            y = y * u + c
        p_next = eps * y
        probs.append(p_next)
        if p_next < eta:
            status = "ReachedTarget"
            break
        if p_next >= p * (1.0 - stall_tol):
            status = "Stalled"
            break
        p = p_next
    return np.frombuffer(probs, dtype=np.float64), status


def _descending(coef):
    """Ascending coefficients as a highest-power-first list for `_horner`."""
    return np.asarray(coef, dtype=np.float64)[::-1].tolist()


def _newton_one(coef_d, target):
    """`bisect_increasing` for one target, on floats, with its Newton rule."""
    top = len(coef_d) - 1
    deriv_d = [(top - i) * c for i, c in enumerate(coef_d[:-1])]
    z = 1.0
    for _ in range(BISECT_MAX_ITER):
        z_next = z - (_horner(coef_d, z) - target) / _horner(deriv_d, z)
        if not z_next < z:
            break
        z = z_next
    return z


def bisect_increasing(coef, targets):
    """Solve ``poly(z) = target`` on [0, 1] for each target, by Newton from z = 1.

    ``poly`` has nonnegative coefficients, so it is increasing and convex
    on [0, 1], and each target lies in [0, poly(1)].  Newton's step
    z <- z - (poly(z) - t)/poly'(z) from z = 1 then falls monotonically to
    the root (Fourier's condition: poly(1) - t >= 0 and poly'' >= 0), so it
    converges for every such target.  Each entry stops at the
    first step that does not lower z, where rounding has taken over, or
    after `BISECT_MAX_ITER` steps.  A single target runs on Python floats
    through `_horner` with the same start, operations and stop as the
    array loop's `_polyval`, so both give the same z to the bit.
    The name is older than the method: the benchmark's tracer binds it and
    counts ``targets``, and `tests/test_tracer_pins.py` pins both.
    """

    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if targets.size == 1:
        return np.full_like(targets, _newton_one(_descending(coef), float(targets.flat[0])))
    coef = np.ascontiguousarray(coef, dtype=np.float64)
    deriv = npoly.polyder(coef)
    z = np.ones_like(targets)
    flat = z.reshape(-1)
    live = np.arange(flat.size)
    zl, tl = flat.copy(), targets.reshape(-1)
    for _ in range(BISECT_MAX_ITER):
        if live.size == 0:
            break
        z_next = zl - (_polyval(zl, coef) - tl) / _polyval(zl, deriv)
        lower = z_next < zl
        live, zl, tl = live[lower], z_next[lower], tl[lower]
        flat[live] = zl
    return z


def recursion_gap(lam_c, rho_c, eps, ps):
    """g(P) = P - eps*lam(1 - rho(1 - P)), the recursion's step, at each P."""

    ps = np.asarray(ps, dtype=np.float64)
    lam_c = np.asarray(lam_c, dtype=np.float64)
    rho_c = np.asarray(rho_c, dtype=np.float64)
    return ps - eps * _polyval(1.0 - _polyval(1.0 - ps, rho_c), lam_c)


def log_p_nodes(eta, eps, n):
    """Midpoints of n equal cells of u = log P on [log eta, log eps], and du.

    Returns ``(P, du)``.  The rule of `estimators.code_estimates` and of
    the min-iteration designer's objective: with weights P*du it
    integrates over dP, and P/g(P) stays bounded as P -> 0 (g ~ P there).
    """

    lo, hi = math.log(eta), math.log(eps)
    du = (hi - lo) / n
    return np.exp(lo + du * (np.arange(n) + 0.5)), du


def _transfer(lam_c, rho_c, eps, zs):
    """x = 1 - rho(z), eps*(psi - lam)(x) = (1 - z) - eps*lam(x), and rho'(z)."""

    zs = np.asarray(zs, dtype=np.float64)
    rho_c = np.asarray(rho_c, dtype=np.float64)
    xs = 1.0 - _polyval(zs, rho_c)
    scaled_gap = (1.0 - zs) - eps * _polyval(xs, np.asarray(lam_c, dtype=np.float64))
    return xs, scaled_gap, _polyval(zs, npoly.polyder(rho_c))


def transfer_gap_scan(lam_c, rho_c, eps, t, zs):
    """(x, psi(x) - lam(x) - t*psi'(x)) at each z of ``zs``, in closed form."""

    xs, scaled_gap, slope = _transfer(lam_c, rho_c, eps, zs)
    return xs, (scaled_gap - t / slope) / eps


def transfer_step(lam_c, rho_c, eps, zs):
    """(x, (psi - lam)/psi') at each z, i.e. rho'(z)*((1 - z) - eps*lam(x))."""

    xs, scaled_gap, slope = _transfer(lam_c, rho_c, eps, zs)
    return xs, slope * scaled_gap
