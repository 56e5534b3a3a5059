"""Command-line smoke tests: exit codes and manifest contents."""

import json

from ldpc_forge.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main

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
