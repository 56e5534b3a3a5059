"""Command-line smoke tests: exit codes and manifest contents."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from helpers import fail_own_certificate, fixture_context
import ldpc_forge
from ldpc_forge import (DEContext, DegreeDistribution, NumericalFailure, solve,
                        utility)
from ldpc_forge.cli import (EXIT_DECODING, EXIT_OK, EXIT_SOLVER, EXIT_USAGE,
                            TRACE_BLOCK_ROWS, RunManifest, build_parser,
                            load_fixtures, main, render_csv_chunks)

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
    assert first["lp_tolerances"] == {"primal": 1e-10, "dual": solve.DUAL_TOL,
                                      "pivot": solve.PIVOT_TOL}
    assert first["versions"] == {"numpy": np.__version__,
                                 "ldpc_forge": ldpc_forge.__version__}
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


def test_infeasible_utility_design_names_the_reach_of_d_v(tmp_path, capsys):
    # no lam of degree <= 8 decodes x^7 at eps 0.6; the failed utility LP
    # designs the ceiling, whose grid LP names the first row x^7 crosses
    argv = ["design", "--objective", "utility", "--rho", '{"8": 1.0}',
            "--epsilon", "0.6", "--eta", "1e-5", "--rd", "0.3", "--dv", "8",
            "--grid-n", "1024", "--out", str(tmp_path / "inf")]
    assert main(argv) == EXIT_SOLVER
    assert capsys.readouterr().err.strip() == (
        "design: Infeasible: rate ceiling failed: Infeasible; grid LP is Infeasible: "
        "eps 0.6 exceeds what degree <= 8 reaches: even lam = x^7 exceeds psi - MARGIN "
        "at x=0.895016")


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


@pytest.mark.parametrize("argv", [RATE_ARGS, MIN_ITER_ARGS], ids=["rate", "min-iter"])
def test_zeta_tilde_outside_utility_exits_usage(tmp_path, capsys, argv):
    # only the utility design reads the anchor; another objective would ignore it
    out = ["--out", str(tmp_path / "out")]
    assert main(argv + ["--zeta-tilde", "1e-3"] + out) == EXIT_USAGE
    assert (f"--zeta-tilde anchors the utility objective only, not {argv[2]}"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


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
    fail_own_certificate(monkeypatch)
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


def test_certify_fails_just_above_the_utility(tmp_path, capsys):
    # the published R_d = 0.45 design for rho x^7 at its own (eps, eta): the
    # step 1.00001 times the utility `estimate` prints crosses psi by 2.6e-11
    # in curve units, which P's rounding bound must not absorb
    ens = load_fixtures().get("x7_coc_r045").ensemble.to_json()
    point = ["--epsilon", "0.5", "--eta", "1e-5"]
    assert main(["estimate", ens, *point]) == EXIT_OK
    t = 1.00001 * json.loads(capsys.readouterr().out)["utility"]
    prefix = tmp_path / "cert"
    assert main(["certify", ens, *point, "--t", repr(t), "--out", str(prefix)]) == EXIT_DECODING
    with open(f"{prefix}.certificate.json") as fh:
        cert = json.load(fh)
    assert cert["kind"] == "SturmFail" and cert["margin"] < 0.0


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


X7_COC = load_fixtures().get("x7_coc_r045").ensemble.to_json()
EVAL_ARGS = [X7_COC, "--epsilon", "0.5", "--eta", "1e-5"]


# each command's printed JSON is the file it writes with --out, and the
# manifest lists the outputs in write order, the main JSON last
@pytest.mark.parametrize("argv, name, order", [
    (["evaluate"] + EVAL_ARGS, "summary", ["trace.csv", "summary.json"]),
    (["estimate"] + EVAL_ARGS, "summary", ["summary.json"]),
    (["certify"] + EVAL_ARGS + ["--t", "1e-4", "--zeta-tilde", "0.01"], "certificate",
     ["certificate.json"]),
    (RATE_ARGS, "report", ["ensemble.json", "report.json"]),
], ids=["evaluate", "estimate", "certify", "design"])
def test_printed_json_is_the_written_json(tmp_path, capsys, argv, name, order):
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    prefix = tmp_path / "o"
    assert main(argv + ["--out", str(prefix)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert (tmp_path / f"o.{name}.json").read_text() == printed
    man = _manifest(prefix)
    assert man["outputs"] == [f"{prefix}.{suffix}" for suffix in order]
    assert list(man["artifacts"]) == sorted(f"o.{suffix}" for suffix in order)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"o.{suffix}" for suffix in order] + ["o.manifest.json"])


# DEContext.create is the one check of (epsilon, eta); the CLI adds none
@pytest.mark.parametrize("command", ["evaluate", "estimate", "certify"])
@pytest.mark.parametrize("epsilon, eta, message", [
    ("0.5", "0.7", "eta 0.7 outside [0.0, 0.5]"),
    ("0.5", "0.5", "eta 0.5 outside [0.0, 0.5]"),
    ("1.2", "1e-5", "epsilon 1.2 outside [0.0, 1.0]"),
    ("1.0", "0.5", "epsilon 1.0 outside [0.0, 1.0]"),
])
def test_eta_and_epsilon_out_of_range_exit_usage(tmp_path, capsys, command, epsilon, eta,
                                                 message):
    argv = [command, X7_COC, "--epsilon", epsilon, "--eta", eta]
    if command == "certify":
        argv += ["--t", "1e-4"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_non_finite_step_exits_usage(tmp_path, capsys, t):
    argv = ["certify"] + EVAL_ARGS + ["--t", t, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert f"t must be finite and >= 0, got {t}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_min_iter_crossing_psi_fails_its_certificate(tmp_path, capsys):
    # at grid 2 the converged design crosses psi between its nodes,
    # and the exact certificate of psi - lam >= 0 on [zeta, xi] finds it
    prefix = tmp_path / "coarse"
    assert main(MIN_ITER_ARGS + ["--grid-n", "2", "--out", str(prefix)]) == EXIT_DECODING
    assert capsys.readouterr().err.startswith("design: CertificateFail: margin ")
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    assert report["status"] == "CertificateFail"
    cert = report["certificate"]
    assert cert["kind"] == "SturmFail"
    ctx = DEContext.create(DegreeDistribution({8: 1.0}), 0.5, 1e-5)
    assert ctx.zeta <= cert["witness_x"] <= ctx.xi
    assert report["max_violation"] == -cert["margin"] > solve.MARGIN


def test_rate_design_out_of_refine_rounds_exits_decoding(tmp_path, monkeypatch, capsys):
    # at grid 64 the first LP's design crosses psi between its rows; with
    # no re-solve allowed the certificate's failure is the verdict
    monkeypatch.setattr(solve, "REFINE_ROUNDS", 0)
    prefix = tmp_path / "coarse"
    argv = RATE_ARGS[:-1] + ["64", "--out", str(prefix)]
    assert main(argv) == EXIT_DECODING
    assert capsys.readouterr().err.startswith("design: CertificateFail: margin ")
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    assert report["status"] == "CertificateFail" and report["rounds"] == 0
    cert = report["certificate"]
    assert cert["kind"] == "SturmFail" and cert["margin"] < 0.0
    assert 0.0 < cert["witness_x"] < DEContext.create(DegreeDistribution({8: 1.0}),
                                                      0.5, 5e-7).xi
    assert report["max_violation"] == -cert["margin"]


def test_solver_numerical_failure_exits_solver(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise NumericalFailure("stationarity residual 1.000e-03 exceeds 1e-6")

    monkeypatch.setattr(solve, "lp_solve", failing)
    assert main(RATE_ARGS + ["--out", str(tmp_path / "rate")]) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "error: stationarity residual 1.000e-03 exceeds 1e-6\n")
    assert not any(tmp_path.iterdir())


def test_tie_break_that_fails_its_gate_exits_solver(tmp_path, monkeypatch, capsys):
    # the rate design's tie-break on the optimal face (the `_simplex` runs
    # with held rows) ends 4e-10 off its equality row: a NumericalFailure,
    # exit 4, as for any LP that fails its gate; no design is kept
    real = solve._simplex

    def off_the_face(c, G, h, n_eq, w, held):
        status, w, x, y = real(c, G, h, n_eq, w, held)
        return status, w, x + (4e-10 if held.size else 0.0), y

    monkeypatch.setattr(solve, "_simplex", off_the_face)
    argv = ["design", "--objective", "rate", "--rho", '{"7": 0.533, "8": 0.467}',
            "--epsilon", "0.4444444444444444", "--dv", "30", "--out", str(tmp_path / "rate")]
    assert main(argv) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("error: primal infeasibility ")
    assert not any(tmp_path.iterdir())


def test_render_csv_exact_bytes():
    # None is an empty cell, a float its repr, a comma forces quotes, every
    # line ends in \r\n and comments follow the rows as "# " lines
    text = "".join(render_csv_chunks(
        ["iteration", "P", "note"],
        ([(0, 0.5, None), (1, 1e-05, "a, b"), (2, 1e+16, "plain"), (3, None, 7)],),
        ("status=ReachedTarget N=3", "epsilon=0.5")))
    assert text.encode() == (
        b"iteration,P,note\r\n"
        b"0,0.5,\r\n"
        b'1,1e-05,"a, b"\r\n'
        b"2,1e+16,plain\r\n"
        b"3,,7\r\n"
        b"# status=ReachedTarget N=3\r\n"
        b"# epsilon=0.5\r\n")


B = TRACE_BLOCK_ROWS


def _whole_csv(header, rows, comments) -> str:
    # the reference: one csv.writer over the whole table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue() + "".join(f"# {c}\r\n" for c in comments)


def _blocks(rows) -> list:
    return [rows[k:k + B] for k in range(0, len(rows), B)]


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_block_renderer_writes_the_whole_table_bytes(n):
    # one chunk per block and one for the comments, the header in the
    # first; blank and quoted cells fall on both sides of block ends
    header, comments = ["iteration", "P", "note"], ("status=Stalled at_iteration=3",)
    rows = [(i, None if i % 3 == 0 else 0.5 / i, "a, b" if i % 2 else "plain")
            for i in range(n)]
    chunks = list(render_csv_chunks(header, _blocks(rows), comments))
    assert len(chunks) == len(_blocks(rows)) + 1
    assert "".join(chunks) == _whole_csv(header, rows, comments)


def test_manifest_hashes_a_multi_block_artifact_as_written(tmp_path):
    rows = [(i, 1.0 / (i + 1)) for i in range(3 * B + 7)]
    path = tmp_path / "t.csv"
    man = RunManifest("evaluate", {}, settings={})
    man.add(str(path), render_csv_chunks(["iteration", "P"], _blocks(rows), ("x",)))
    data = path.read_bytes()
    assert data == _whole_csv(["iteration", "P"], rows, ("x",)).encode()
    assert man.artifacts == {"t.csv": hashlib.sha256(data).hexdigest()}
    assert man.outputs == [str(path)]


@pytest.mark.parametrize("existing", [False, True])
def test_chunk_source_failing_mid_stream_leaves_no_file(tmp_path, existing):
    # the temp file is removed, and a target already there is left as it was
    path = tmp_path / "t.csv"
    if existing:
        path.write_text("old\n")

    def chunks():
        yield "iteration,P\r\n"
        yield "0,0.5\r\n"
        raise RuntimeError("renderer failed")

    man = RunManifest("evaluate", {}, settings={})
    with pytest.raises(RuntimeError, match="renderer failed"):
        man.add(str(path), chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["t.csv"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"
    assert man.artifacts == {} and man.outputs == []


def test_evaluate_trace_memory_is_the_trace_itself(tmp_path):
    # x7_poc just below its threshold stalls after 34,669 rows (exit 3).
    # The float64 trace is 8 B a row; the CSV text, rendered and hashed a
    # block at a time, must add no more than a constant.  Rendered whole,
    # it costs about 129 B a row
    ens = load_fixtures().get("x7_poc").ensemble.to_json()
    # a short stall first, so first-call costs fall outside the trace
    assert main(["evaluate", ens, "--epsilon", "0.52", "--eta", "1e-5",
                 "--out", str(tmp_path / "warm")]) == EXIT_DECODING
    argv = ["evaluate", ens, "--epsilon", "0.4999842289939814", "--eta", "1e-5",
            "--out", str(tmp_path / "long")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DECODING
    data = (tmp_path / "long.trace.csv").read_bytes()
    lines = data.split(b"\r\n")[:-1]
    rows = len(lines) - 2  # header and status comment
    assert rows == 34_669 and lines[-1].startswith(b"# status=Stalled")
    assert peak <= 16 * rows + 2**19, f"{peak / rows:.1f} B/row"
    assert _manifest(tmp_path / "long")["artifacts"]["long.trace.csv"] == (
        hashlib.sha256(data).hexdigest())


def _evaluate_outputs(prefix) -> tuple:
    summary = (prefix.parent / f"{prefix.name}.summary.json").read_text()
    params = _manifest(prefix)["parameters"]
    params.pop("out")
    return summary, params


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    # a flag set on one call is absent from the next, which reads as the
    # same call made alone with a freshly built parser
    assert build_parser() is build_parser()
    assert main(["evaluate"] + EVAL_ARGS + ["--zeta-tilde", "0.01",
                                           "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["evaluate"] + EVAL_ARGS + ["--out", str(tmp_path / "b")]) == EXIT_OK
    build_parser.cache_clear()
    assert main(["evaluate"] + EVAL_ARGS + ["--out", str(tmp_path / "c")]) == EXIT_OK
    with_anchor, _ = _evaluate_outputs(tmp_path / "a")
    after, alone = _evaluate_outputs(tmp_path / "b"), _evaluate_outputs(tmp_path / "c")
    assert after == alone and "zeta_tilde" not in alone[1]
    assert with_anchor != after[0]

    assert main(RATE_ARGS + ["--rd", "0.45", "--eta", "1e-5",
                             "--out", str(tmp_path / "d")]) == EXIT_OK
    assert main(RATE_ARGS + ["--out", str(tmp_path / "e")]) == EXIT_OK
    build_parser.cache_clear()
    assert main(RATE_ARGS + ["--out", str(tmp_path / "f")]) == EXIT_OK
    reports, params = [], []
    for name in "def":
        reports.append((tmp_path / f"{name}.report.json").read_text())
        man = _manifest(tmp_path / name)
        man["parameters"].pop("out")
        params.append(man["parameters"])
    assert reports[1] == reports[2] == reports[0]
    assert params[1] == params[2] and not {"rd", "eta"} & set(params[2])
    assert {"rd", "eta"} <= set(params[0])


def test_import_does_not_build_the_parser():
    code = ("from ldpc_forge import cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n"
            "cli.build_parser()\n"
            "assert cli.build_parser.cache_info().currsize == 1\n")
    src = os.path.dirname(os.path.dirname(ldpc_forge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_command_imports_scipy(tmp_path):
    # one fresh interpreter: the LP-free commands, evaluate's file writes
    # included, and a rate, a utility and a min-iter design, whose LPs the
    # package solves itself, load no scipy module at all
    ens = '{"lambda": {"2": 0.5, "3": 0.5}, "rho": {"6": 1.0}}'
    point = ["--epsilon", "0.3", "--eta", "1e-3"]
    fig2 = ["--rho", '{"8": 1.0}', "--epsilon", "0.5", "--eta", "1e-5", "--rd", "0.45",
            "--dv", "16"]
    runs = [["validate", ens], ["evaluate", ens, *point, "--out", str(tmp_path / "ev")],
            ["estimate", ens, *point], ["certify", ens, *point, "--t", "1e-6"],
            ["design", "--objective", "rate", "--rho", '{"6": 1.0}', "--epsilon", "0.3",
             "--dv", "8", "--grid-n", "256", "--out", str(tmp_path / "rate")],
            ["design", "--objective", "utility", *fig2, "--out", str(tmp_path / "util")],
            ["design", "--objective", "min-iter", *fig2, "--grid-n", "512",
             "--out", str(tmp_path / "miniter")]]
    code = ("import contextlib, io, sys\n"
            "from ldpc_forge import cli\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == cli.EXIT_OK, argv\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    src = os.path.dirname(os.path.dirname(ldpc_forge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("rate", "util", "miniter"):
        assert _manifest(tmp_path / name)["versions"] == {
            "numpy": np.__version__, "ldpc_forge": ldpc_forge.__version__}
