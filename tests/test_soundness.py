"""Seeded soundness sweep: random specs, an exact oracle, no silent "Optimal".

Specs follow one strategy: rho = {d_c: a, d_c + 1: 1 - a} with d_c in
6-9, eps in [0.40, 0.55], d_v in {8, 12, 16, 20}, and a grid of 256 or
512 points.  Every Optimal rate design must be a clean lam of positive
rate.  Every utility design, with its rate floor at 0.97 of the
rate-maximal design's rate, must be Optimal with a clean, rate-meeting
lam; so must every min-iter design with the same floor, within the KKT
tolerance.  Every certificate must agree with the exact-rational oracle.
"""

import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ActiveSetTwin, bernstein_oracle, tuning_capped_and_uncapped
from ldpc_forge import (DEContext, DegreeDistribution, DesignSpec, Ensemble,
                        compile_constraint, design_min_iterations, design_rate,
                        design_utility, rate, solve)


@st.composite
def rate_specs(draw):
    d_c = draw(st.integers(6, 9))
    a = draw(st.floats(0.2, 0.8))
    rho = DegreeDistribution({d_c: a, d_c + 1: 1.0 - a})
    eps = draw(st.floats(0.40, 0.55))
    d_v = draw(st.sampled_from([8, 12, 16, 20]))
    grid_n = draw(st.sampled_from([256, 512]))
    return rho, eps, d_v, grid_n


@st.composite
def utility_specs(draw):
    rho, eps, d_v, grid_n = draw(rate_specs())
    ceiling = design_rate(rho, eps, d_v, grid_n)
    assume(ceiling.ok)
    return DesignSpec(rho=rho, epsilon=eps, eta=eps * 1e-4, R_d=0.97 * ceiling.objective,
                      d_v=d_v, grid_n=grid_n)


def _counting_calls(design, *args):
    """design(*args), its `solve.lp_solve` calls and its active-set Newton steps.

    Each active-set step factors its working rows once (`np.linalg.qr`).
    """
    calls, steps = [], []
    real_lp, real_qr = solve.lp_solve, np.linalg.qr

    def lp_spy(*a, **kw):
        calls.append(0)
        return real_lp(*a, **kw)

    def qr_spy(*a, **kw):
        if sys._getframe(1).f_code is solve._active_set.__code__:
            steps.append(0)
        return real_qr(*a, **kw)

    solve.lp_solve, np.linalg.qr = lp_spy, qr_spy
    try:
        rep = design(*args)
    finally:
        solve.lp_solve, np.linalg.qr = real_lp, real_qr
    return rep, len(calls), len(steps)


@settings(derandomize=True, max_examples=12)
@given(rate_specs())
def test_rate_design_is_sound(rate_spec):
    rho, eps, d_v, grid_n = rate_spec
    rep, calls, _ = _counting_calls(design_rate, rho, eps, d_v, grid_n)
    # one LP, its tie-break on the optimal face included, once and after
    # each refinement round
    assert calls <= solve.REFINE_ROUNDS + 1
    if rep.certificate is not None:
        ctx = DEContext.create(rho, eps, eta=eps * 1e-6)
        cp = compile_constraint(rep.lam, 0.0, rho, eps, ctx.zeta, ctx.xi)
        assert bernstein_oracle(cp.coeffs) is rep.certificate.passed
    if rep.status == "Optimal":
        vec = rep.lam.dense[1:]
        assert np.all(vec >= 0.0)
        assert abs(float(vec.sum()) - 1.0) <= 1e-12
        assert rate(Ensemble(rep.lam, rho)) > 0.0


@settings(derandomize=True, max_examples=12)
@given(utility_specs())
def test_utility_design_is_sound(spec):
    rep, calls, _ = _counting_calls(design_utility, spec)
    # one LP per tuning candidate and the chosen anchor's cold re-solve:
    # at 0.97*R_max the first 2^3 Bernstein pieces are never infeasible
    assert calls <= len(solve.TUNE_FACTORS) + 1
    assert rep.status == "Optimal", rep.detail
    vec = rep.lam.dense[1:]
    assert np.all(vec >= 0.0)
    assert abs(float(vec.sum()) - 1.0) <= 1e-12
    assert rate(Ensemble(rep.lam, spec.rho)) >= spec.R_d
    cp = compile_constraint(rep.lam, rep.t * (1.0 - 1e-6), spec.rho, spec.epsilon,
                            rep.zeta_tilde, spec.context().xi)
    assert bernstein_oracle(cp.coeffs) is rep.certificate.passed


@settings(derandomize=True, max_examples=12)
@given(utility_specs())
def test_capped_tuning_recursions_change_nothing(spec):
    # the same draws as test_utility_design_is_sound: the zeta_tilde
    # candidates' recursions stopped one step short of the best so far
    # choose the anchor that recursions run out to TUNE_L_MAX choose
    (capped, steps), (uncapped, all_steps) = tuning_capped_and_uncapped(spec)
    assert capped.zeta_tilde == uncapped.zeta_tilde
    assert repr(capped) == repr(uncapped)
    assert steps <= all_steps


@settings(derandomize=True, max_examples=12)
@given(utility_specs())
def test_min_iter_design_is_sound(spec):
    rep, calls, steps = _counting_calls(design_min_iterations, spec)
    # the start LP on 2^3 pieces alone: a design that succeeds designs no
    # rate ceiling
    assert calls == 1
    assert 0 < steps <= solve.MAX_NEWTON_STEPS
    assert rep.status == "Optimal", rep.detail
    assert rep.optimality_gap <= solve.KKT_TOL
    vec = rep.lam.dense[1:]
    assert np.all(vec >= 0.0)
    assert abs(float(vec.sum()) - 1.0) <= 1e-12
    assert rate(Ensemble(rep.lam, spec.rho)) >= spec.R_d
    ctx = spec.context()
    cp = compile_constraint(rep.lam, 0.0, spec.rho, spec.epsilon, ctx.zeta, ctx.xi)
    assert bernstein_oracle(cp.coeffs) is rep.certificate.passed


@settings(derandomize=True, max_examples=12)
@given(utility_specs())
def test_min_iter_row_form_matches_the_reference(spec):
    # the same draws as test_min_iter_design_is_sound, each run on the rows
    # of G and by the bounds-and-floor reference
    statuses, (ref, new) = ActiveSetTwin.design_both_ways(spec)
    assert statuses[0] == statuses[1]
    assert ActiveSetTwin.same_run(ref, new), (ref, new)


def test_min_iter_floor_above_the_ceiling_is_infeasible(rho_x7):
    R_max = design_rate(rho_x7, 0.5, 16, grid_n=1024).objective
    rep = design_min_iterations(DesignSpec(rho=rho_x7, epsilon=0.5, eta=1e-5, d_v=16,
                                           R_d=R_max + 1e-6, grid_n=1024))
    assert rep.status == "Infeasible", rep.detail
