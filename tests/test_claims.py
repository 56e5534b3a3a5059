"""Quoted claims from the paper, each checked at its own tolerance."""

import pytest

from ldpc_forge import DegreeDistribution, design_rate
from ldpc_forge.cli import repro_fig5
from ldpc_forge.solve import DEFAULT_GRID_N


def test_r_max_x7(claims):
    claim = claims["r_max_x7"]
    p = claim["params"]
    rho = DegreeDistribution.from_json_dict(p["rho"])
    rep = design_rate(rho, p["epsilon"], p["d_v"], grid_n=DEFAULT_GRID_N)
    assert rep.status == "Optimal"
    assert rep.objective == pytest.approx(claim["value"], abs=claim["tolerance"])


def test_dv_iteration_counts(claims):
    claim = claims["dv_iteration_counts"]
    header, rows, _ = repro_fig5(DEFAULT_GRID_N)
    got = {row[header.index("d_v")]: row[header.index("exact_N_redesigned")]
           for row in rows}
    for d_v, quoted in claim["counts"].items():
        assert got[int(d_v)] == pytest.approx(quoted, rel=claim["rel_tolerance"]), d_v
