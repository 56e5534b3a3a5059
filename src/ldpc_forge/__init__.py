"""Design and analysis of erasure-channel LDPC degree distributions.

The package models iterative decoding on the binary erasure channel as a
staircase bouncing between the variable-side polynomial lam(x) and the
check-side transfer curve psi(x).  On top of that picture it provides:

* `de_engine` - the erasure recursion, which gives the exact iteration
  count, psi and its derivative, and the one inversion
  x -> z = rho^{-1}(1 - x);
* `estimators` - the iteration approximation approx_N and its floor (over
  the recursion variable P, with no inverse of rho), the bottleneck
  utility, and the x-domain integral reference (`CurvePair`);
* `series` - `taylor_for`, the truncated power series of psi by series
  reversion; no designer or command calls it, and it stays only while the
  benchmark's tracer wraps it (imported here so the tracer finds it);
* `sip_compile` - the step-size constraint as one exact polynomial in
  z = rho^{-1}(1 - x), and its nonnegativity certificate by Bernstein
  subdivision with a stated rounding bound;
* `solve` - rate-maximal, utility-maximal, and iteration-minimal designers;
  the `sip_compile` certificate decides every status but a failed solve,
  and the rate designer also re-solves with its witnesses as rows;
* `cli` - the `ldpc-forge` command with embedded published designs and a
  dataset reproduction harness.
"""

from .de_engine import DEContext, DecodingTrace, de_trace, psi, psi_deriv
from .ensemble import DegreeDistribution, Ensemble, graphical_complexity, rate
from .errors import (DegenerateGap, DerivativeSingular, DomainError,
                     LdpcForgeError, NegativeCoefficient, NumericalFailure,
                     RateOutOfRange, ReversionSingular, SumNotOne)
from .estimators import (CurvePair, UtilityResult, approx_iterations, code_curves,
                         code_estimates, utility)
from .series import taylor_for
from .sip_compile import (ConstraintPolynomial, NonnegCertificate, certify,
                          compile_constraint)
from .solve import (DesignSpec, LPResult, SolveReport, design_min_iterations,
                    design_rate, design_utility, lp_solve)

__version__ = "0.1.0"

__all__ = [
    "ConstraintPolynomial", "CurvePair", "DEContext", "DecodingTrace",
    "DegenerateGap", "DegreeDistribution", "DerivativeSingular", "DesignSpec",
    "DomainError", "Ensemble", "LPResult", "LdpcForgeError", "NegativeCoefficient",
    "NonnegCertificate", "NumericalFailure", "RateOutOfRange", "ReversionSingular",
    "SolveReport", "SumNotOne", "UtilityResult", "approx_iterations", "certify",
    "code_curves", "code_estimates", "compile_constraint", "de_trace",
    "design_min_iterations", "design_rate", "design_utility",
    "graphical_complexity", "lp_solve", "psi", "psi_deriv", "rate",
    "taylor_for", "utility",
]
