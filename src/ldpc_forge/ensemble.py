"""Edge-perspective degree distributions, code rate, and graphical complexity.

A degree distribution assigns to each node degree ``i >= 2`` the fraction of
Tanner-graph edges attached to degree-``i`` nodes.  Its generating polynomial
is ``sum_i coeff(i) * x**(i-1)``; note the offset between node degree and
exponent.  All constructors and serialized forms index by node degree, never
by exponent, so the offset lives in exactly one place (the evaluation code).
Exact zeros are dropped on construction.  `DegreeDistribution.validate`
checks the simplex invariants, and `renormalized` turns a solver's vector
into the canonical reportable form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import NegativeCoefficient, RateOutOfRange, SumNotOne

SIMPLEX_TOL = 1e-9
PUBLISHED_SUM_TOL = 5e-4
CLIP_TOL = 1e-8  # negatives `renormalized` clips to zero as solver round-off

CoeffsLike = Union[Mapping[int, float], Iterable[tuple[int, float]]]


class DegreeDistribution:
    """Immutable map from node degree to edge fraction.

    Parameters
    ----------
    coeffs : mapping or iterable of pairs
        Node degree (>= 2) to fraction of edges.  Entries that are exactly
        zero are dropped, so ``d_max`` is the largest degree with nonzero
        mass.
    published : bool
        Marks coefficients quoted from print sources, which are rounded to
        four digits; validation then accepts a sum-to-one defect up to 5e-4
        instead of 1e-9.
    """

    __slots__ = ("_pairs", "_dense", "d_max", "published")

    def __init__(self, coeffs: CoeffsLike, *, published: bool = False):
        if isinstance(coeffs, Mapping):
            items = [(int(d), float(v)) for d, v in coeffs.items()]
        else:
            items = [(int(d), float(v)) for d, v in coeffs]
        if not items:
            raise ValueError("degree distribution needs at least one coefficient")
        seen = set()
        for d, _ in items:
            if d < 2:
                raise ValueError(f"node degrees start at 2, got {d}")
            if d in seen:
                raise ValueError(f"duplicate degree {d}")
            seen.add(d)
        items = sorted((d, v) for d, v in items if v != 0.0)
        if not items:
            # keep a single explicit zero so d_max stays defined
            items = [(2, 0.0)]
        self._pairs = tuple(items)
        self.d_max = items[-1][0]
        self.published = bool(published)
        dense = np.zeros(self.d_max, dtype=np.float64)
        for d, v in items:
            dense[d - 1] = v
        dense.setflags(write=False)
        self._dense = dense

    @property
    def coeffs(self) -> dict[int, float]:
        """Degree-indexed coefficients as a fresh dict."""
        return dict(self._pairs)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self._pairs)

    @property
    def dense(self) -> np.ndarray:
        """Read-only exponent-indexed coefficients: dense[k] multiplies x**k."""
        return self._dense

    def coeff(self, degree: int) -> float:
        return dict(self._pairs).get(degree, 0.0)

    def eval(self, x):
        """Generating polynomial sum_i coeff(i) * x**(i-1); works on arrays."""
        out = npoly.polyval(x, self._dense)
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, x):
        """Derivative sum_i coeff(i) * (i-1) * x**(i-2); works on arrays."""
        out = npoly.polyval(x, npoly.polyder(self._dense))
        return float(out) if np.isscalar(x) else out

    def integral(self) -> float:
        """Integral of the generating polynomial over [0, 1] = sum_i coeff(i)/i."""
        return float(sum(v / d for d, v in self._pairs))

    def validate(self) -> None:
        """Check the simplex invariants; raises NegativeCoefficient or SumNotOne."""
        tol = PUBLISHED_SUM_TOL if self.published else SIMPLEX_TOL
        for d, v in self._pairs:
            if v < 0.0:
                raise NegativeCoefficient(d, v)
        total = float(sum(v for _, v in self._pairs))
        if abs(total - 1.0) > tol:
            raise SumNotOne(total, tol)

    def renormalized(self) -> "DegreeDistribution":
        """Clip tiny negatives to zero, drop round-off dust, rescale to unit sum.

        Solver round-trips leave coefficients off the simplex by rounding
        error; this produces the canonical reportable form.  A negative
        coefficient down to -`CLIP_TOL` is clipped to zero; below that it
        raises NegativeCoefficient.  Dust is a
        positive coefficient of at most 2**-53 of the total, the size of LP
        round-off; it is dropped before the rescale.
        """
        clipped = {}
        for d, v in self._pairs:
            if v < 0.0:
                if v < -CLIP_TOL:
                    raise NegativeCoefficient(d, v)
                v = 0.0
            if v != 0.0:
                clipped[d] = v
        dust = math.ldexp(sum(clipped.values()), -53)
        kept = {d: v for d, v in clipped.items() if v > dust}
        total = sum(kept.values())
        if total <= 0.0:
            raise SumNotOne(total, CLIP_TOL)
        return DegreeDistribution(
            {d: v / total for d, v in kept.items()}, published=self.published
        )

    def to_json_dict(self) -> dict[str, float]:
        return {str(d): v for d, v in self._pairs}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, float], **kwargs) -> "DegreeDistribution":
        return cls({int(k): float(v) for k, v in data.items()}, **kwargs)

    def __eq__(self, other) -> bool:
        return isinstance(other, DegreeDistribution) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"{d}: {v:.6g}" for d, v in self._pairs)
        return f"DegreeDistribution({{{body}}})"


@dataclass(frozen=True)
class Ensemble:
    """A code ensemble: variable-side ``lam`` and check-side ``rho``."""

    lam: DegreeDistribution
    rho: DegreeDistribution

    def validate(self) -> None:
        self.lam.validate()
        self.rho.validate()

    def to_json_dict(self) -> dict:
        return {"lambda": self.lam.to_json_dict(), "rho": self.rho.to_json_dict()}

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: Mapping, *, published: bool = False) -> "Ensemble":
        return cls(
            lam=DegreeDistribution.from_json_dict(data["lambda"], published=published),
            rho=DegreeDistribution.from_json_dict(data["rho"], published=published),
        )


def rate(e: Ensemble) -> float:
    """Design code rate 1 - (sum_i rho_i/i) / (sum_i lam_i/i)."""
    return 1.0 - e.rho.integral() / e.lam.integral()


def graphical_complexity(rho: DegreeDistribution, R: float) -> float:
    """Tanner-graph edges per information bit: (1-R) / (R * sum_i rho_i/i)."""
    if not 0.0 < R < 1.0:
        raise RateOutOfRange(R)
    return (1.0 - R) / (R * rho.integral())
