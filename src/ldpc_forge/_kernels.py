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
callers that are handed x.  It halves a whole array of targets at once;
a single target is bisected on Python floats with the same halving rule
and the same residuals, so both give the same z to the bit.

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

# Status codes of the recursion runner.
STATUS_REACHED = 0
STATUS_STALLED = 1
STATUS_MAX_ITER = 2

BISECT_MAX_ITER = 100  # halvings before `bisect_increasing` gives up on a target


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
    ``status`` is one of the STATUS_* codes.  ``probs`` is a float64 view
    of the ``array('d')`` the recursion appends to, not a copy, so a long
    trace is held once.  Both Horner loops are written out in the
    recursion, in `_horner`'s operation order.
    """

    lam_d = _descending(lam_c)
    rho_d = _descending(rho_c)
    eps = float(eps)
    eta = float(eta)
    stall_tol = float(stall_tol)
    p = eps
    probs = array("d", [p])
    status = STATUS_MAX_ITER
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
            status = STATUS_REACHED
            break
        if p_next >= p * (1.0 - stall_tol):
            status = STATUS_STALLED
            break
        p = p_next
    return np.frombuffer(probs, dtype=np.float64), status


def _descending(coef):
    """Ascending coefficients as a highest-power-first list for `_horner`."""
    return np.asarray(coef, dtype=np.float64)[::-1].tolist()


def _bisect_one(coef_d, target, tol):
    """`bisect_increasing` for one target, on floats, with its halving rule."""
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        resid = _horner(coef_d, mid) - target
        if abs(resid) <= tol:
            break
        if resid < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def bisect_increasing(coef, targets, tol):
    """Solve ``poly(z) = target`` on [0, 1] for each target.

    The polynomial must be nondecreasing on [0, 1]; iteration stops per
    entry once the residual is within ``tol`` or after `BISECT_MAX_ITER`
    halvings.  A single target runs on Python floats, bit-identical to the
    array loop.
    """

    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if targets.size == 1:
        mid = _bisect_one(_descending(coef), float(targets.flat[0]), float(tol))
        return np.full_like(targets, mid)
    coef = np.ascontiguousarray(coef, dtype=np.float64)
    lo = np.zeros_like(targets)
    hi = np.ones_like(targets)
    mid = np.full_like(targets, 0.5)
    done = np.zeros(targets.shape, dtype=bool)
    for _ in range(BISECT_MAX_ITER):
        mid = np.where(done, mid, 0.5 * (lo + hi))
        resid = _polyval(mid, coef) - targets
        done = done | (np.abs(resid) <= tol)
        if done.all():
            break
        below = (resid < 0.0) & ~done
        above = ~below & ~done
        lo = np.where(below, mid, lo)
        hi = np.where(above, mid, hi)
    return mid


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
