"""Seeded soundness sweep: random specs, an exact oracle, no silent "Optimal".

Specs follow one strategy: rho = {d_c: a, d_c + 1: 1 - a} with d_c in
6-9, eps in [0.40, 0.55], d_v in {8, 12, 16, 20}, and the rate floor at
0.97 of the rate-maximal design's rate on a grid of at most 512 points.
Every utility design must then be Optimal with a clean, rate-meeting
lam, and its certificate must agree with the exact-rational oracle.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bernstein_oracle
from ldpc_forge import (DegreeDistribution, DesignSpec, Ensemble, compile_constraint,
                        design_rate, design_utility, rate, solve)


@st.composite
def utility_specs(draw):
    d_c = draw(st.integers(6, 9))
    a = draw(st.floats(0.2, 0.8))
    rho = DegreeDistribution({d_c: a, d_c + 1: 1.0 - a})
    eps = draw(st.floats(0.40, 0.55))
    d_v = draw(st.sampled_from([8, 12, 16, 20]))
    grid_n = draw(st.sampled_from([256, 512]))
    ceiling = design_rate(rho, eps, d_v, grid_n)
    assume(ceiling.ok)
    return DesignSpec(rho=rho, epsilon=eps, eta=eps * 1e-4, R_d=0.97 * ceiling.objective,
                      d_v=d_v, grid_n=grid_n)


@settings(derandomize=True, max_examples=12)
@given(utility_specs())
def test_utility_design_is_sound(spec):
    calls = []
    real = solve.lp_solve

    def spy(*args, **kwargs):
        calls.append(0)
        return real(*args, **kwargs)

    solve.lp_solve = spy
    try:
        rep = design_utility(spec)
    finally:
        solve.lp_solve = real
    # one LP per tuning candidate and the chosen anchor's cold re-solve:
    # at 0.97*R_max the first 2^3 Bernstein pieces are never infeasible
    assert len(calls) <= len(solve.TUNE_FACTORS) + 1
    assert rep.status == "Optimal", rep.detail
    vec = rep.lam.dense[1:]
    assert np.all(vec >= 0.0)
    assert abs(float(vec.sum()) - 1.0) <= 1e-12
    assert rate(Ensemble(rep.lam, spec.rho)) >= spec.R_d
    cp = compile_constraint(rep.lam, rep.t * (1.0 - 1e-6), spec.rho, spec.epsilon,
                            rep.zeta_tilde, spec.context().xi)
    assert bernstein_oracle(cp.coeffs) is rep.certificate.passed
