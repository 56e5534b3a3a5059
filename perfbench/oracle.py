"""Independent reference computations for checking ldpc-forge outputs.

Everything here is plain Python on degree maps as they appear in JSON
(``{"2": 0.27, "16": 0.52}``, node degree to edge fraction).  Nothing calls
into the package, so a defect in its numeric code cannot hide itself.

The erasure recursion uses the same Horner order as the package's numpy
lane, so a count it reaches must match the package's count exactly.
"""

from __future__ import annotations

import math

STALL_TOL = 1e-12
L_MAX = 1_000_000


def dense(degree_map: dict) -> list[float]:
    """Exponent-indexed coefficients: entry k multiplies x**k."""
    top = max(int(d) for d in degree_map)
    coef = [0.0] * top
    for d, v in degree_map.items():
        coef[int(d) - 1] = float(v)
    return coef


def horner(coef: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coef):
        acc = acc * x + c
    return acc


def de_count(lam: dict, rho: dict, epsilon: float, eta: float,
             l_max: int = L_MAX, stall_tol: float = STALL_TOL) -> tuple[str, int]:
    """Run P_l = eps*lam(1 - rho(1 - P_{l-1})) from P_0 = eps.

    Returns ("reached", l) once P_l < eta, ("stalled", l) when the relative
    decrease falls under stall_tol, or ("max", l_max).
    """
    lam_c, rho_c = dense(lam), dense(rho)
    p = epsilon
    for it in range(1, l_max + 1):
        p_next = epsilon * horner(lam_c, 1.0 - horner(rho_c, 1.0 - p))
        if p_next < eta:
            return "reached", it
        if p_next >= p * (1.0 - stall_tol):
            return "stalled", it
        p = p_next
    return "max", l_max


def min_margin(lam: dict, rho: dict, epsilon: float, lo: float,
               n: int = 20_000) -> tuple[float, float]:
    """Smallest x - eps*lam(1 - rho(1 - x)) on n uniform points of (lo, eps].

    A positive minimum means decoding at eps drives the erasure
    probability from eps down to lo.
    """
    lam_c, rho_c = dense(lam), dense(rho)
    step = (epsilon - lo) / n
    best, best_x = math.inf, lo
    for k in range(1, n + 1):
        x = lo + step * k
        m = x - epsilon * horner(lam_c, 1.0 - horner(rho_c, 1.0 - x))
        if m < best:
            best, best_x = m, x
    return best, best_x


def integral(degree_map: dict) -> float:
    """sum_i coeff(i)/i, summed in ascending degree order."""
    return sum(float(v) / int(d) for d, v in sorted(degree_map.items(),
                                                    key=lambda kv: int(kv[0])))


def rate(lam: dict, rho: dict) -> float:
    """Design rate 1 - (sum rho_i/i) / (sum lam_i/i)."""
    return 1.0 - integral(rho) / integral(lam)


def threshold(lam: dict, rho: dict, scan_n: int = 4000) -> float:
    """Largest eps at which decoding succeeds: inf over x of x / f(x).

    f(x) = lam(1 - rho(1 - x)).  The infimum is either the stability limit
    1/(lam_2 rho'(1)) as x -> 0, or an interior tangency, found by a margin
    scan and polished by golden-section search.
    """
    lam_c, rho_c = dense(lam), dense(rho)

    def ratio(x: float) -> float:
        return x / horner(lam_c, 1.0 - horner(rho_c, 1.0 - x))

    xs = [(k + 1) / scan_n for k in range(scan_n)]
    k = min(range(scan_n), key=lambda j: ratio(xs[j]))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, scan_n - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - g * (b - a), a + g * (b - a)
        if ratio(c) < ratio(d):
            b = d
        else:
            a = c
    tangency = ratio(0.5 * (a + b))
    rho_slope = sum(k * rho_c[k] for k in range(1, len(rho_c)))
    lam2 = lam_c[1] if len(lam_c) > 1 else 0.0
    stability = math.inf if lam2 == 0.0 else 1.0 / (lam2 * rho_slope)
    return min(tangency, stability)
