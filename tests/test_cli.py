"""Command-line smoke tests: exit codes and manifest contents."""

import json

import pytest

from ldpc_forge.cli import (EXIT_DECODING, EXIT_OK, EXIT_SOLVER, EXIT_USAGE,
                            load_fixtures, main)

RATE_ARGS = ["design", "--objective", "rate", "--rho", '{"8": 1.0}',
             "--epsilon", "0.5", "--dv", "16", "--grid-n", "512"]


def _manifest(prefix) -> dict:
    with open(f"{prefix}.manifest.json") as fh:
        return json.load(fh)


def test_design_manifest_is_reproducible(tmp_path):
    prefix = tmp_path / "rate"
    manifests = []
    for _ in range(2):
        assert main(RATE_ARGS + ["--out", str(prefix)]) == EXIT_OK
        manifests.append(_manifest(prefix))
    first, second = manifests
    assert first["lp_options"]["presolve"] is False
    assert set(first["versions"]) == {"numpy", "scipy", "highs"}
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_infeasible_design_exits_solver(tmp_path, capsys):
    # lam = x alone is unstable at eps = 0.5 for rho = x^7
    argv = ["design", "--objective", "rate", "--rho", '{"8": 1.0}',
            "--epsilon", "0.5", "--dv", "2", "--out", str(tmp_path / "inf")]
    assert main(argv) == EXIT_SOLVER
    assert "Infeasible" in capsys.readouterr().err


def test_bad_json_exits_usage(capsys):
    argv = ["design", "--objective", "rate", "--rho", "{not json",
            "--epsilon", "0.5", "--dv", "16"]
    assert main(argv) == EXIT_USAGE
    assert "not valid JSON" in capsys.readouterr().err


def test_evaluate_past_threshold_exits_decoding(tmp_path):
    # the published rate-optimal x^7 code decodes up to eps ~ 0.5 only
    ens = load_fixtures().get("x7_poc").ensemble
    prefix = tmp_path / "stall"
    argv = ["evaluate", ens.to_json(), "--epsilon", "0.52", "--eta", "1e-5",
            "--out", str(prefix)]
    assert main(argv) == EXIT_DECODING
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "Stalled" and summary["exact_N"] is None
    for key in ("approx_N", "lower_bound", "utility", "utility_argmin_x"):
        assert summary[key] is None, key
    assert summary["rate"] == pytest.approx(0.4714, abs=1e-3)
    with open(f"{prefix}.trace.csv") as fh:
        assert "status=Stalled" in fh.read()
    assert set(_manifest(prefix)["artifacts"]) == {"stall.trace.csv", "stall.summary.json"}
