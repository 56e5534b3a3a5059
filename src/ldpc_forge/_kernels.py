"""Low-level numeric loops with an optional JIT lane.

The erasure-probability recursion, batched inversion of the check
polynomial and the margin scan are written twice: once as scalar loops
compiled with numba when it is importable, and once vectorized in plain
numpy.  Setting the environment variable ``LDPC_FORGE_NUMBA=0`` forces the
numpy lane even when numba is installed; both lanes perform the same
operations in the same order, so results agree to the last bit.

The transfer-gap scan has a single path built on that inversion:
`transfer_grid` turns a grid of x into psi and psi' (one bisection per
point), and `transfer_gap` evaluates psi - lam - t*psi' on it.
`transfer_gap_scan` is the two composed, for callers that scan a grid
only once.

Array conventions: polynomial coefficient arrays are dense, float64, and
exponent-indexed ascending, i.e. ``c[k]`` multiplies ``x**k``.
"""

from __future__ import annotations

import os

import numpy as np
import numpy.polynomial.polynomial as npoly


def _jit_enabled() -> bool:
    flag = os.environ.get("LDPC_FORGE_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


HAS_NUMBA = False
if _jit_enabled():
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        pass

if not HAS_NUMBA:

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op replacement so the decorated sources stay importable."""

        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


USING_NUMBA = HAS_NUMBA

# Status codes shared by both lanes of the recursion runner.
STATUS_REACHED = 0
STATUS_STALLED = 1
STATUS_MAX_ITER = 2


@njit(cache=True)
def _horner(coef, x):
    acc = 0.0
    for k in range(coef.shape[0] - 1, -1, -1):
        acc = acc * x + coef[k]
    return acc


@njit(cache=True)
def _de_recursion_jit(lam_c, rho_c, eps, eta, l_max, stall_tol, probs):
    probs[0] = eps
    p = eps
    for l in range(1, l_max + 1):
        p_next = eps * _horner(lam_c, 1.0 - _horner(rho_c, 1.0 - p))
        probs[l] = p_next
        if p_next < eta:
            return l, STATUS_REACHED
        if p_next >= p * (1.0 - stall_tol):
            return l, STATUS_STALLED
        p = p_next
    return l_max, STATUS_MAX_ITER


def _de_recursion_np(lam_c, rho_c, eps, eta, l_max, stall_tol, probs):
    probs[0] = eps
    p = eps
    lam_d = lam_c[::-1]
    rho_d = rho_c[::-1]
    for l in range(1, l_max + 1):
        inner = 1.0 - float(np.polyval(rho_d, 1.0 - p))
        p_next = eps * float(np.polyval(lam_d, inner))
        probs[l] = p_next
        if p_next < eta:
            return l, STATUS_REACHED
        if p_next >= p * (1.0 - stall_tol):
            return l, STATUS_STALLED
        p = p_next
    return l_max, STATUS_MAX_ITER


def de_run(lam_c, rho_c, eps, eta, l_max, stall_tol):
    """Run the erasure-probability recursion until target, stall, or cap.

    Returns ``(probs, status)`` where ``probs`` holds P_0 .. P_n and
    ``status`` is one of the STATUS_* codes.
    """

    probs = np.empty(l_max + 1, dtype=np.float64)
    runner = _de_recursion_jit if USING_NUMBA else _de_recursion_np
    n, status = runner(
        np.ascontiguousarray(lam_c, dtype=np.float64),
        np.ascontiguousarray(rho_c, dtype=np.float64),
        float(eps),
        float(eta),
        int(l_max),
        float(stall_tol),
        probs,
    )
    return probs[: n + 1].copy(), int(status)


@njit(cache=True)
def _bisect_increasing_jit(coef, targets, tol, max_iter, out):
    for j in range(targets.shape[0]):
        target = targets[j]
        lo = 0.0
        hi = 1.0
        mid = 0.5
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            resid = _horner(coef, mid) - target
            if abs(resid) <= tol:
                break
            if resid < 0.0:
                lo = mid
            else:
                hi = mid
        out[j] = mid


def _bisect_increasing_np(coef, targets, tol, max_iter, out):
    lo = np.zeros_like(targets)
    hi = np.ones_like(targets)
    mid = np.full_like(targets, 0.5)
    done = np.zeros(targets.shape, dtype=bool)
    for _ in range(max_iter):
        mid = np.where(done, mid, 0.5 * (lo + hi))
        resid = npoly.polyval(mid, coef) - targets
        done = done | (np.abs(resid) <= tol)
        if done.all():
            break
        below = (resid < 0.0) & ~done
        above = ~below & ~done
        lo = np.where(below, mid, lo)
        hi = np.where(above, mid, hi)
    out[:] = mid


def bisect_increasing(coef, targets, tol, max_iter=100):
    """Solve ``poly(z) = target`` on [0, 1] for each target.

    The polynomial must be nondecreasing on [0, 1]; iteration stops per
    entry once the residual is within ``tol`` or after ``max_iter`` halvings.
    """

    targets = np.ascontiguousarray(targets, dtype=np.float64)
    out = np.empty_like(targets)
    solver = _bisect_increasing_jit if USING_NUMBA else _bisect_increasing_np
    solver(
        np.ascontiguousarray(coef, dtype=np.float64),
        targets,
        float(tol),
        int(max_iter),
        out,
    )
    return out


@njit(cache=True)
def _margin_scan_jit(lam_c, rho_c, eps, eta, n):
    best = np.inf
    best_x = eta
    step = (eps - eta) / n
    for j in range(1, n + 1):
        x = eta + step * j
        m = x - eps * _horner(lam_c, 1.0 - _horner(rho_c, 1.0 - x))
        if m < best:
            best = m
            best_x = x
    return best, best_x


def _margin_scan_np(lam_c, rho_c, eps, eta, n):
    xs = eta + (eps - eta) / n * np.arange(1, n + 1, dtype=np.float64)
    margins = xs - eps * npoly.polyval(1.0 - npoly.polyval(1.0 - xs, rho_c), lam_c)
    j = int(np.argmin(margins))
    return float(margins[j]), float(xs[j])


def margin_scan(lam_c, rho_c, eps, eta, n):
    """Minimum of x - eps*lam(1 - rho(1 - x)) over a uniform grid on (eta, eps].

    Returns ``(min_margin, argmin_x)``; the grid excludes ``eta`` and
    includes ``eps``.
    """

    scanner = _margin_scan_jit if USING_NUMBA else _margin_scan_np
    out = scanner(
        np.ascontiguousarray(lam_c, dtype=np.float64),
        np.ascontiguousarray(rho_c, dtype=np.float64),
        float(eps),
        float(eta),
        int(n),
    )
    return float(out[0]), float(out[1])


def transfer_grid(rho_c, eps, xs, tol, max_iter=100):
    """psi and psi' at each x of ``xs``, through one bisection of rho.

    With z = rho^{-1}(1 - x) found by `bisect_increasing`, psi(x) =
    (1 - z)/eps and psi'(x) = 1/(eps*rho'(z)).  Neither depends on lam or
    t, so a designer inverts a scan grid once and reuses it for every
    candidate via `transfer_gap`.
    """

    xs = np.ascontiguousarray(xs, dtype=np.float64)
    rho_c = np.ascontiguousarray(rho_c, dtype=np.float64)
    z = bisect_increasing(rho_c, 1.0 - xs, tol, max_iter)
    psi = (1.0 - z) / eps
    dpsi = 1.0 / (eps * npoly.polyval(z, npoly.polyder(rho_c)))
    return psi, dpsi


def transfer_gap(lam_c, t, xs, psi, dpsi):
    """psi - lam - t*psi' on a grid whose psi and psi' are already known."""

    return psi - npoly.polyval(xs, np.asarray(lam_c, dtype=np.float64)) - t * dpsi


def transfer_gap_scan(lam_c, rho_c, eps, t, xs, tol, max_iter=100):
    """Evaluate psi(x) - lam(x) - t*psi'(x) at each x, psi by bisection."""

    xs = np.ascontiguousarray(xs, dtype=np.float64)
    return transfer_gap(lam_c, t, xs, *transfer_grid(rho_c, eps, xs, tol, max_iter))
