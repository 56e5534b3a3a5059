"""Exception types shared across the package.

Every failure that callers are expected to handle programmatically gets its
own class carrying the offending values, so tests and the CLI can report
precisely what went wrong without parsing message strings.
"""

from __future__ import annotations


class LdpcForgeError(Exception):
    """Base class for all package-specific errors."""


class NegativeCoefficient(LdpcForgeError):
    """A degree-distribution coefficient is negative."""

    def __init__(self, degree: int, value: float):
        self.degree = degree
        self.value = value
        super().__init__(f"coefficient for degree {degree} is negative: {value!r}")


class SumNotOne(LdpcForgeError):
    """Degree-distribution coefficients do not sum to one."""

    def __init__(self, actual: float, tol: float):
        self.actual = actual
        self.tol = tol
        super().__init__(f"coefficients sum to {actual!r}, expected 1 within {tol:g}")


class RateOutOfRange(LdpcForgeError):
    """A code rate outside the open interval (0, 1) was supplied."""

    def __init__(self, rate: float):
        self.rate = rate
        super().__init__(f"rate must lie in (0, 1), got {rate!r}")


class DomainError(LdpcForgeError):
    """An argument lies outside the domain of the requested function."""

    def __init__(self, x: float, lo: float, hi: float, what: str = "argument"):
        self.x = x
        self.lo = lo
        self.hi = hi
        super().__init__(f"{what} {x!r} outside [{lo!r}, {hi!r}]")


class DerivativeSingular(LdpcForgeError):
    """The check-side slope vanishes where a derivative was requested."""

    def __init__(self, x: float, slope: float):
        self.x = x
        self.slope = slope
        super().__init__(f"derivative singular at x={x!r} (slope {slope!r})")


class DegenerateGap(LdpcForgeError):
    """The gap between the two transfer curves is non-positive."""

    def __init__(self, x: float, gap: float):
        self.x = x
        self.gap = gap
        super().__init__(f"curve gap {gap!r} at x={x!r} is not positive")


class ReversionSingular(LdpcForgeError):
    """Series reversion is impossible because the linear term vanishes."""

    def __init__(self, slope: float):
        self.slope = slope
        super().__init__(f"cannot revert series with linear coefficient {slope!r}")


class NumericalFailure(LdpcForgeError):
    """A numerical backend returned an unusable result."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)
