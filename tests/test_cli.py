"""Command-line smoke tests: exit codes and manifest contents."""

import hashlib
import json
import time

import pytest

from helpers import failing_tie_break, fixture_context
from ldpc_forge import DEContext, DegreeDistribution, NonnegCertificate, solve, utility
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


def test_utility_design_manifest_times_the_command(tmp_path):
    prefix = tmp_path / "util"
    argv = ["design", "--objective", "utility", "--rho", '{"8": 1.0}',
            "--epsilon", "0.5", "--eta", "1e-5", "--rd", "0.45", "--dv", "16",
            "--grid-n", "512", "--out", str(prefix)]
    t0 = time.perf_counter()
    assert main(argv) == EXIT_OK
    elapsed = time.perf_counter() - t0
    # the whole command, designer included, not only the file writes
    assert 0.5 * elapsed <= _manifest(prefix)["wall_time_s"] <= elapsed + 1e-3
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    # the tuned anchor, which sets lam_2, is reported
    zeta = DEContext.create(DegreeDistribution({8: 1.0}), 0.5, 1e-5).zeta
    assert report["zeta_tilde"] in {f * zeta for f in solve.TUNE_FACTORS}


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


MIN_ITER_ARGS = ["design", "--objective", "min-iter", "--rho", '{"8": 1.0}',
                 "--epsilon", "0.5", "--eta", "1e-5", "--rd", "0.45", "--dv", "16"]


@pytest.mark.parametrize("grid_n", ["0", "-5"])
@pytest.mark.parametrize("argv", [RATE_ARGS[:-2], MIN_ITER_ARGS, ["reproduce", "fig6"],
                                  ["reproduce", "fig3"]],
                         ids=["rate", "min-iter", "fig6", "fig3"])
def test_nonpositive_grid_exits_usage(tmp_path, capsys, argv, grid_n):
    out = ["--out", str(tmp_path / "out")]
    assert main(argv + ["--grid-n", grid_n] + out) == EXIT_USAGE
    assert "--grid-n must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_design_reports_the_rate_ceiling_fallback(tmp_path, monkeypatch):
    # the rate ceiling's tie-break LP is made to fail its KKT check, so the
    # first LP's vertex is kept and the report says so
    monkeypatch.setattr(solve, "lp_solve", failing_tie_break(solve.lp_solve))
    prefix = tmp_path / "miniter"
    argv = ["design", "--objective", "min-iter", "--rho", '{"7": 0.5330, "8": 0.4670}',
            "--epsilon", "0.4444444444444444", "--eta", "0.001", "--rd", "0.5",
            "--dv", "30", "--out", str(prefix)]
    assert main(argv) == EXIT_OK
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    assert report["status"] == "Optimal"
    assert report["detail"].startswith("rate ceiling: tie-break LP rejected")


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


def test_estimate_past_threshold_exits_decoding(tmp_path):
    prefix = tmp_path / "est"
    argv = ["estimate", '{"lambda": {"2": 0.5, "3": 0.5}, "rho": {"8": 1.0}}',
            "--epsilon", "0.52", "--eta", "1e-5", "--out", str(prefix)]
    assert main(argv) == EXIT_DECODING
    with open(f"{prefix}.summary.json") as fh:
        summary = json.load(fh)
    for key in ("approx_N", "lower_bound", "utility", "utility_argmin_x"):
        assert summary[key] is None, key
    assert summary["rate"] == pytest.approx(1.0 - (1 / 8) / (0.5 / 2 + 0.5 / 3))


def test_design_with_failing_certificate_exits_decoding(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solve, "certify", lambda cp: NonnegCertificate(
        "SturmFail", -1.0, witness=0.5, witness_value=-1.0))
    prefix = tmp_path / "util"
    argv = ["design", "--objective", "utility", "--rho", '{"8": 1.0}',
            "--epsilon", "0.1", "--eta", "1e-5", "--rd", "0.7", "--dv", "2",
            "--grid-n", "512", "--out", str(prefix)]
    assert main(argv) == EXIT_DECODING
    assert "CertificateFail" in capsys.readouterr().err
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    assert report["status"] == "CertificateFail"
    assert report["certificate"]["kind"] == "SturmFail"
    assert report["ensemble"] is not None and report["t"] > 0.0


@pytest.mark.parametrize("factor, code", [(0.999, EXIT_OK), (1.01, EXIT_DECODING)])
def test_certify_brackets_utility(tmp_path, factor, code):
    f = load_fixtures().get("mix_dv16")
    ctx = fixture_context(f)
    u = utility(f.ensemble.lam, ctx, zeta_tilde=0.5 * ctx.zeta)
    prefix = tmp_path / "cert"
    argv = ["certify", f.ensemble.to_json(), "--epsilon", repr(ctx.epsilon),
            "--eta", repr(ctx.eta), "--t", repr(factor * u.value), "--out", str(prefix)]
    assert main(argv) == code
    with open(f"{prefix}.certificate.json") as fh:
        cert = json.load(fh)
    assert cert["passed"] == (code == EXIT_OK)
    assert cert["degree"] == 111
    if code == EXIT_OK:
        assert cert["kind"] == "SturmPass" and cert["witness_x"] is None
    else:
        assert cert["kind"] == "SturmFail"
        assert cert["zeta_tilde"] <= cert["witness_x"] <= ctx.xi
        assert cert["witness_value"] < 0.0


def test_validate_published_and_strict_tolerance(capsys):
    ens = load_fixtures().get("mix_acc_r048").ensemble.to_json()
    assert main(["validate", ens]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["d_v"] == 16 and out["d_c"] == 8
    # the published lam sums to 0.9999: inside the published tolerance only
    assert main(["validate", ens, "--strict"]) == EXIT_USAGE
    assert "sum to 0.9999" in capsys.readouterr().err


@pytest.mark.parametrize("figure", ["table1", "fig3"])
def test_reproduce_matches_its_manifest_and_repeats(tmp_path, figure):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["reproduce", figure, "--out", str(out)]) == EXIT_OK
        data = (out / f"{figure}.csv").read_bytes()
        with open(out / f"{figure}.manifest.json") as fh:
            man = json.load(fh)
        assert man["artifacts"] == {f"{figure}.csv": hashlib.sha256(data).hexdigest()}
        runs.append(data)
    assert runs[0] == runs[1]
