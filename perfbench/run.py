"""Benchmark for ldpc-forge: seeded design and evaluation workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  Every job is one
``ldpc-forge`` command run in-process through ``ldpc_forge.cli.main`` with
``--out`` into a temporary directory inside the checkout, one job after
another, with BLAS pinned to one thread.  Jobs repeat in passes while
another pass fits in ``--seconds`` (at least one pass runs); design
passes repeat the same jobs, evaluate passes draw fresh inputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first pass twice, untraced and then with spans recorded around the
package's layer functions (see ``spans.py``), and reports the per-layer
metrics plus the tracing overhead.

End-to-end metrics, all lower-is-better unless marked:

* setup_s - import of ldpc_forge plus loading fixtures and claims, the
  median of three fresh interpreters (two children and this process),
  so work moved into import shows.
* wall_s - time of one pass over the workload's commands (median over
  passes): what a user running that set of commands waits.
* job_p50_s - median time of one command; ``attempted`` is the count.
* peak_rss_mb - peak resident memory of the process running the commands.
* pass_share (higher) - share of jobs with the documented outcome and
  correct outputs, i.e. 1 - fail_share, which would read 0 on rate_sweep.
* rate_ratio (higher) - mean R/(1-eps) of the codes produced or
  evaluated: the design quality the rate LP maximizes.
* design_iters - geometric mean of exact recursion iterations at each
  design point (rate designs to eta=1e-5 at their eps, designed codes at
  their eta, published fixtures at their published eps and eta): the
  decoding complexity the paper minimizes.

Every output is checked against plain-Python references (``oracle.py``).
The last stdout line is the result JSON; the per-job output record, with
a digest of each job's outputs and, when traced, the spans, goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import envinfo
import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = "1"
SETUP_CHILDREN = 2
MAX_PASSES = 8
SETUP_CODE = """\
import time
t0 = time.perf_counter()
from ldpc_forge import cli
cli.load_fixtures()
cli.load_claims()
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def measure_setup() -> list[float]:
    """Import ldpc_forge and load fixtures and claims in fresh interpreters.

    The benchmark process itself gives one more sample (`import_package`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def import_package() -> float:
    """Set-up in this process, timed as the children time it."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from ldpc_forge import cli

    cli.load_fixtures()
    cli.load_claims()
    seconds = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"ldpc_forge imported from {cli.__file__}, not from {SRC}")
    return seconds


def load_data() -> dict:
    data_dir = os.path.join(SRC, "ldpc_forge", "data")
    with open(os.path.join(data_dir, "fixtures.json")) as fh:
        fixtures = {row["name"]: row for row in json.load(fh)["entries"]}
    with open(os.path.join(data_dir, "paper_claims.json")) as fh:
        claims = json.load(fh)["claims"]
    return {"fixtures": fixtures, "claims": claims,
            "thresholds": workloads.thresholds(fixtures)}


def run_job(job: workloads.Job, prefix: str) -> dict:
    """One command through cli.main; the time covers that call only."""
    main = sys.modules["ldpc_forge.cli"].main  # looked up late: tracing may wrap it
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(job.argv) + ["--out", prefix])
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = None
            print(f"raised {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = time.perf_counter() - t0
    outputs = {}
    for key in ("report", "ensemble", "summary"):
        path = f"{prefix}.{key}.json"
        if os.path.exists(path):
            with open(path) as fh:
                outputs[key] = json.load(fh)
    return {"job": job, "exit": code, "seconds": seconds, "stderr": err.getvalue(),
            "outputs": outputs}


def run_pass(jobs, workdir: str, tag: str, rec=None) -> list[dict]:
    results = []
    for i, job in enumerate(jobs):
        if rec is not None:
            rec.job = f"{tag}-{i}"
        results.append(run_job(job, os.path.join(workdir, f"{tag}-{i}")))
    return results


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_all(results: list[dict], claims: dict) -> list[dict]:
    rows = []
    for r in results:
        job = r["job"]
        out = workloads.check(job, r["exit"], r["stderr"], r["outputs"], claims)
        rows.append({"name": job.name, "seconds": r["seconds"], "outcome": out,
                     "record": out.record, "digest": _digest(out.record),
                     "failures": [reason for reason, _ in out.failures]})
    return rows


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rows: list[dict], pass_walls: list[float], setup: list[float],
               peak_rss_mb: float) -> dict:
    ratios = [r["outcome"].rate_ratio for r in rows if r["outcome"].rate_ratio is not None]
    iters = [r["outcome"].iterations for r in rows if r["outcome"].iterations]
    passed = sum(1 for r in rows if not r["failures"])
    geo = math.exp(statistics.fmean(math.log(n) for n in iters)) if iters else 0.0
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.median(pass_walls), "s"),
        "job_p50_s": _metric(statistics.median(r["seconds"] for r in rows), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "pass_share": _metric(passed / len(rows), "share"),
        "rate_ratio": _metric(statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "design_iters": _metric(geo, "iterations"),
    }


def per_layer(rec: spans.Recorder, overhead_s: float) -> dict:
    incl, self_s, calls = rec.totals()
    c = rec.counts

    def sec(value) -> dict:
        return _metric(float(value), "s")

    def count(value) -> dict:
        return _metric(int(value), "count")

    return {
        "solve.lp_solve.s": sec(incl["solve.lp_solve"]),
        "solve.lp_solve.calls": count(calls["solve.lp_solve"]),
        "solve.lp_solve.rows": count(c["solve.lp_solve.rows"]),
        "solve.design.self_s": sec(self_s["solve.design"]),
        "solve.exchange_rounds": count(c["solve.exchange_rounds"]),
        "kernels.transfer_gap_scan.s": sec(incl["kernels.transfer_gap_scan"]),
        "kernels.transfer_gap_scan.points": count(c["kernels.transfer_gap_scan.points"]),
        "kernels.bisect_increasing.s": sec(incl["kernels.bisect_increasing"]),
        "kernels.bisect_increasing.points": count(c["kernels.bisect_increasing.points"]),
        "kernels.de_run.s": sec(incl["kernels.de_run"]),
        "kernels.de_run.iterations": count(c["kernels.de_run.iterations"]),
        "de_engine.psi.self_s": sec(self_s["de_engine.psi"]),
        "de_engine.psi.calls": count(calls["de_engine.psi"]),
        "de_engine.psi_deriv.self_s": sec(self_s["de_engine.psi_deriv"]),
        "estimators.utility.self_s": sec(self_s["estimators.utility"]),
        "estimators.approx_iterations.self_s": sec(self_s["estimators.approx_iterations"]),
        "series.taylor_for.s": sec(incl["series.taylor_for"]),
        "sip_compile.compile_constraint.s": sec(incl["sip_compile.compile_constraint"]),
        "sip_compile.certify.s": sec(incl["sip_compile.certify"]),
        "sip_compile.certify.failed": count(c["sip_compile.certify.failed"]),
        "sip_compile.degree": count(c["sip_compile.degree"]),
        "cli.main.self_s": sec(self_s["cli.main"]),
        "cli.write_s": sec(incl["cli.write"]),
        "trace.overhead_s": sec(overhead_s),
    }


def measure(args, data: dict, workdir: str) -> tuple[list, dict]:
    passes = workloads.make_passes(args.workload, args.seed, data, MAX_PASSES)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    results, walls = [], []
    rec = None
    if args.trace:
        untraced = run_pass(passes[0], workdir, "untraced")
        rec = spans.Recorder()
        before = spans.bindings()
        with spans.traced(rec):
            traced = run_pass(passes[0], workdir, "traced", rec)
        if spans.bindings() != before:
            raise BenchError("tracing left a package attribute rebound")
        results = untraced + traced
        walls = [sum(r["seconds"] for r in untraced), sum(r["seconds"] for r in traced)]
    else:
        start = time.perf_counter()
        for i, jobs in enumerate(passes):
            batch = run_pass(jobs, workdir, f"pass{i}")
            results += batch
            walls.append(sum(r["seconds"] for r in batch))
            if time.perf_counter() - start + walls[-1] > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = check_all(results, data["claims"])
    if args.trace:
        half = len(rows) // 2
        for a, b in zip(rows[:half], rows[half:]):
            if a["digest"] != b["digest"]:
                b["outcome"].fail("traced output differs from the untraced run", wrong=True)
                b["failures"].append("traced output differs from the untraced run")
    record["passes"] = len(walls)
    record["pass_wall_s"] = walls
    record["jobs"] = [{k: r[k] for k in ("name", "seconds", "record", "digest", "failures")}
                      for r in rows]
    record["digest"] = _digest([r["digest"] for r in rows])
    if rec is not None:
        record["spans"] = rec.spans
        metrics = per_layer(rec, walls[1] - walls[0])
    else:
        metrics = None
    return rows, {"record": record, "walls": walls, "metrics": metrics,
                  "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ldpc_forge", "__init__.py")):
        print(f"error: no ldpc_forge package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    workdir = None
    try:
        setup = measure_setup()
        setup.append(import_package())
        data = load_data()
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        rows, res = measure(args, data, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    record = res["record"]
    record["environment"] = envinfo.collect()
    record["setup_samples_s"] = setup
    failed = [r for r in rows if r["failures"]]
    correct = not any(wrong for r in rows for _, wrong in r["outcome"].failures)
    if res["metrics"] is None:
        metrics = end_to_end(rows, res["walls"], setup, res["peak_rss_mb"])
    else:
        metrics = res["metrics"]
    record["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{len(rows)} jobs in {len(res['walls'])} pass(es); record in {out_path}",
          file=sys.stderr)
    for r in failed:
        print(f"FAILED {r['name']}: {'; '.join(r['failures'])}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
