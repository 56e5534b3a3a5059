"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import contextlib

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def data():
    d = os.path.join(REPO, "src", "ldpc_forge", "data")
    with open(os.path.join(d, "fixtures.json")) as fh:
        fixtures = {row["name"]: row for row in json.load(fh)["entries"]}
    return {"fixtures": fixtures, "thresholds": workloads.thresholds(fixtures)}


def _inputs(passes):
    return [[(j.name, j.argv) for j in jobs] for jobs in passes]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, data):
    a = workloads.make_passes(workload, 7, data, 2)
    b = workloads.make_passes(workload, 7, data, 2)
    assert _inputs(a) == _inputs(b)


def test_evaluate_inputs_depend_on_seed_and_stay_balanced(data):
    a = workloads.make_passes("evaluate", 1, data, 1)[0]
    b = workloads.make_passes("evaluate", 2, data, 1)[0]
    assert _inputs([a]) != _inputs([b])
    seeded = [j for j in a if not j.params["published"]]
    assert len(seeded) == 3 * len(data["fixtures"])
    assert sum(j.params["side"] == "above" for j in seeded) == len(data["fixtures"])
    assert all(1e-4 <= j.params["delta"] < 1e-1 for j in seeded)


def test_de_oracle_matches_hand_counts():
    # lam = rho = x: P_l = eps**(l+1); 0.5**10 < 1e-3 <= 0.5**9
    assert oracle.de_count({"2": 1.0}, {"2": 1.0}, 0.5, 1e-3) == ("reached", 9)
    # (3,6)-regular, threshold 0.4294: below it decodes, above it stalls
    state, _ = oracle.de_count({"3": 1.0}, {"6": 1.0}, 0.45, 1e-3)
    assert state == "stalled"
    p, n = 0.3, 0
    while p >= 1e-3:
        p = 0.3 * (1.0 - (1.0 - p) ** 5) ** 2
        n += 1
    assert oracle.de_count({"3": 1.0}, {"6": 1.0}, 0.3, 1e-3) == ("reached", n)


def test_threshold_and_rate_oracles():
    assert oracle.threshold({"3": 1.0}, {"6": 1.0}) == pytest.approx(0.4294398, abs=1e-6)
    # all degree-2 variables: stability limit 1/(lam_2 rho'(1)) = 1/5
    assert oracle.threshold({"2": 1.0}, {"6": 1.0}) == pytest.approx(0.2, rel=1e-12)
    assert oracle.rate({"3": 1.0}, {"6": 1.0}) == pytest.approx(0.5, abs=1e-15)


def test_tracing_restores_every_binding(data):
    from ldpc_forge import cli, estimators

    fx = data["fixtures"]["mix_dv16"]
    argv = ["evaluate", json.dumps(fx["ensemble"]), "--epsilon", "0.45",
            "--eta", "1e-3"]
    before = spans.bindings()
    original_psi = estimators.psi
    rec = spans.Recorder()
    with spans.traced(rec):
        assert estimators.psi is not original_psi
        with contextlib.redirect_stdout(io.StringIO()):
            assert sys.modules["ldpc_forge.cli"].main(argv) == 0
    assert spans.bindings() == before
    assert estimators.psi is original_psi and cli.main.__module__ == "ldpc_forge.cli"
    incl, self_s, calls = rec.totals()
    assert calls["cli.main"] == 1 and calls["kernels.de_run"] == 1
    assert rec.counts["kernels.de_run.iterations"] > 0
    for name in incl:
        assert 0.0 <= self_s[name] <= incl[name] + 1e-12


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "evaluate", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
