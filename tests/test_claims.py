"""Quoted claims from the paper, each checked at its own tolerance."""

import pytest

from ldpc_forge import DEContext, DegreeDistribution, code_estimates, de_trace, design_rate
from ldpc_forge.cli import _design_pair_counts, repro_fig5, repro_fig7
from ldpc_forge.solve import DEFAULT_GRID_N


def test_r_max_x7(claims):
    claim = claims["r_max_x7"]
    p = claim["params"]
    rho = DegreeDistribution.from_json_dict(p["rho"])
    rep = design_rate(rho, p["epsilon"], p["d_v"], grid_n=DEFAULT_GRID_N)
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(claim["value"], abs=claim["tolerance"])


def test_ratio_limit_mix(claims):
    # largest eps at which the rate LP still reaches R_d, bisected to 1e-5
    claim = claims["ratio_limit_mix"]
    p = claim["params"]
    rho = DegreeDistribution.from_json_dict(p["rho"], published=True)

    def reaches(eps):
        rep = design_rate(rho, eps, p["d_v"], grid_n=DEFAULT_GRID_N)
        return rep.status == "Optimal" and rep.objective >= p["R_d"]

    lo, hi = 0.4, 1.0 - p["R_d"]  # up to capacity, where no code reaches R_d
    assert reaches(lo)
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reaches(mid) else (lo, mid)
    ratio = p["R_d"] / (1.0 - lo)
    assert ratio == pytest.approx(claim["value"], abs=claim["tolerance"])


def test_designer_consistency(claims):
    claim = claims["designer_consistency"]
    p = claim["params"]
    for ratio in p["ratios"]:
        got = _design_pair_counts(ratio, p["d_v"], DEFAULT_GRID_N, eta=p["eta"],
                                  R_d=p["R_d"])
        assert got["miniter"] is not None and got["utility"] is not None, ratio
        assert got["utility"] == pytest.approx(got["miniter"],
                                               rel=claim["rel_tolerance"]), ratio


def test_dv_iteration_counts(claims):
    claim = claims["dv_iteration_counts"]
    header, rows, _ = repro_fig5(DEFAULT_GRID_N)
    got = {row[header.index("d_v")]: row[header.index("exact_N_redesigned")]
           for row in rows}
    for d_v, quoted in claim["counts"].items():
        assert got[int(d_v)] == pytest.approx(quoted, rel=claim["rel_tolerance"]), d_v


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="min-iter redesigns at the "
                   "published R = 0.488 need 339/350/500 iterations at target 1e-5 "
                   "(design eta 1e-5/1e-3/1e-2) against the quoted 204/214/278, which "
                   "refer to R_d = 0.485 designs; the published R = 0.488 codes "
                   "themselves need 343/359/704")
def test_eta_iteration_counts(claims):
    claim = claims["eta_iteration_counts"]
    header, rows, _ = repro_fig7(DEFAULT_GRID_N)
    col = header.index
    got = {repr(row[col("design_eta")]): row[col("exact_N_redesigned")]
           for row in rows if row[col("target")] == claim["params"]["target"]}
    assert set(got) == set(claim["counts"])
    for eta, quoted in claim["counts"].items():
        assert got[eta] == pytest.approx(quoted, rel=claim["rel_tolerance"]), eta


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="approx/exact is 53.543/50 (7.1%) for mix_acc_r048 "
                   "at target 1e-4: the continuous approximation's own offset, not "
                   "quadrature error")
def test_accuracy_claim(claims, fixtures):
    claim = claims["accuracy_claim"]
    eps = claim["params"]["epsilon"]
    for name in claim["fixtures"]:
        e = fixtures.get(name).ensemble
        for target in claim["params"]["targets"]:
            ctx = DEContext.create(e.rho, eps, target)
            exact = de_trace(e, ctx).iterations
            approx = code_estimates(e, ctx).approx_N
            assert approx == pytest.approx(exact, rel=claim["rel_tolerance"]), (name, target)
