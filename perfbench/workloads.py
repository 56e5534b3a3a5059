"""The three seeded workloads and the checks applied to their outputs.

Each job is one ``ldpc-forge`` command line (``design`` or ``evaluate``)
with an explicit ``--grid-n``; the runner adds ``--out``.  Inputs are
built from the seed and the packaged data files before any timing starts.

* ``rate_sweep`` - ``design --objective rate`` on rho = x^7 at the d_v = 16
  column of Fig. 6 (eps = 0.48, 0.50, 0.52).  eps = 0.50 is the paper's
  quoted R_max point.  LP-bound: no series, certificate or barrier work.
* ``coc_design`` - ``design --objective min-iter`` at the Fig. 5 point
  (ratio 0.97, d_v = 16, mixed rho) and the Fig. 2 ``utility`` design
  (x^7, eps = 0.5, eta = 1e-5, R_d = 0.45, d_v = 16).  Runs every design
  layer: rate ceiling, zeta-tilde tuning LPs, barrier Newton loop, gap
  scans, series, compile and certify.
* ``evaluate`` - ``evaluate`` on all 20 published fixtures at three
  seeded eps each, one per decade of relative offset from the fixture's
  threshold in [1e-4, 1e-1] (log-uniform within the decade, spread
  evenly over the fixtures), with eta drawn from {1e-3, 1e-5}, plus the
  15 published (eps, eta) points.  No LP and no series: time goes to the
  recursion, psi bisection and the estimators.

The seed orders the design jobs and draws every evaluate input.  The
design cells are fixed: with two or three jobs a run, seeded draws across
the Fig. 4-6 grids moved design_iters by ~35% and rate_ratio by ~5%
between seeds, and low-d_v Fig. 6 cells are infeasible (exit 4 in ~1 s).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle

GRID_N = 4096
RHO_X7 = {"8": 1.0}
RATE_CELLS = ((0.50, 16), (0.48, 16), (0.52, 16))
# x^7 at eps = 0.5 with R_d = 0.45 is the Fig. 2 complexity-optimized code
FIG2_UTILITY = {"epsilon": 0.5, "eta": 1e-5, "R_d": 0.45, "d_v": 16}
FIG5_RATIO = 0.97
FIG5_DV = 16
DESIGN_ETA = 1e-3
DESIGN_RATE = 0.5
RATE_ETA = 1e-5
EVAL_ETAS = (1e-3, 1e-5)
EVAL_DECADES = (-4, -3, -2)

WORKLOADS = ("rate_sweep", "coc_design", "evaluate")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "rate", "min-iter", "utility" or "evaluate"
    argv: tuple
    params: dict = field(compare=False)


def _design(kind: str, rho: dict, epsilon: float, d_v: int, **extra) -> Job:
    argv = ["design", "--objective", kind, "--rho", json.dumps(rho),
            "--epsilon", repr(epsilon), "--dv", str(d_v), "--grid-n", str(GRID_N)]
    if kind != "rate":
        argv += ["--eta", repr(extra["eta"]), "--rd", repr(extra["R_d"])]
    name = f"{kind}:eps={epsilon:.6g}:dv={d_v}"
    params = {"rho": rho, "epsilon": epsilon, "d_v": d_v, **extra}
    return Job(name=name, kind=kind, argv=tuple(argv), params=params)


def rate_sweep_jobs(rng: random.Random, data: dict) -> list[Job]:
    jobs = [_design("rate", RHO_X7, eps, d_v) for eps, d_v in RATE_CELLS]
    rng.shuffle(jobs)
    return jobs


def coc_design_jobs(rng: random.Random, data: dict) -> list[Job]:
    mix_rho = data["fixtures"]["mix_dv16"]["ensemble"]["rho"]
    eps = 1.0 - DESIGN_RATE / FIG5_RATIO
    jobs = [
        _design("min-iter", mix_rho, eps, FIG5_DV, eta=DESIGN_ETA, R_d=DESIGN_RATE,
                ratio=FIG5_RATIO),
        _design("utility", RHO_X7, FIG2_UTILITY["epsilon"], FIG2_UTILITY["d_v"],
                eta=FIG2_UTILITY["eta"], R_d=FIG2_UTILITY["R_d"]),
    ]
    rng.shuffle(jobs)
    return jobs


def _evaluate(name: str, fx: dict, epsilon: float, eta: float, side: str,
              delta: float, published: bool = False) -> Job:
    e = fx["ensemble"]
    argv = ("evaluate", json.dumps(e), "--epsilon", repr(epsilon),
            "--eta", repr(eta))
    tag = "published" if published else f"{side}:{delta:.3e}"
    return Job(name=f"evaluate:{name}:{tag}:eta={eta:g}", kind="evaluate", argv=argv,
               params={"fixture": name, "lambda": e["lambda"], "rho": e["rho"],
                       "epsilon": epsilon, "eta": eta, "side": side, "delta": delta,
                       "published": published})


def evaluate_jobs(rng: random.Random, data: dict) -> list[Job]:
    """Three seeded eps per fixture, plus each fixture's published point.

    The seeded eps take one decade each of relative offset from the
    fixture's threshold.  The nearest decade always sits below: above it,
    a stability-limited fixture stalls only after ~1e5 iterations, and two
    such jobs alone would swing a run's time by a fifth between seeds.  Of
    the two farther decades a seeded one sits above, so the seeded jobs
    are 40 below and 20 above, and the median job is a decoding one.

    Fixtures that publish (eps, eta) are also evaluated there; those fixed
    points carry design_iters, which seeded offsets would move by ~10%.
    """
    names = sorted(data["fixtures"])
    n = len(names)
    above = [rng.choice(EVAL_DECADES[1:]) for _ in names]
    jobs = []
    for decade in EVAL_DECADES:
        slots = rng.sample(range(n), n)
        low_eta = set(rng.sample(range(n), n // 2))
        for i, name in enumerate(names):
            delta = 10.0 ** (decade + (slots[i] + rng.random()) / n)
            side = "above" if above[i] == decade else "below"
            eta = EVAL_ETAS[0] if i in low_eta else EVAL_ETAS[1]
            th = data["thresholds"][name]
            eps = th * (1.0 - delta) if side == "below" else th * (1.0 + delta)
            jobs.append(_evaluate(name, data["fixtures"][name], eps, eta, side, delta))
    for name in names:
        fx = data["fixtures"][name]
        eps, eta = fx["params"]["epsilon"], fx["params"]["eta"]
        if eta is None:
            continue
        th = data["thresholds"][name]
        side = "below" if eps < th else "above"
        jobs.append(_evaluate(name, fx, eps, eta, side, abs(eps / th - 1.0), published=True))
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {"rate_sweep": rate_sweep_jobs, "coc_design": coc_design_jobs,
             "evaluate": evaluate_jobs}


def make_passes(workload: str, seed: int, data: dict, count: int) -> list[list[Job]]:
    """Job lists for up to `count` passes; design passes repeat one list."""
    rng = random.Random(f"{workload}:{seed}")
    build = _GENERATORS[workload]
    if workload != "evaluate":
        jobs = build(rng, data)
        return [jobs] * count
    return [build(rng, data) for _ in range(count)]


def thresholds(fixtures: dict) -> dict:
    return {name: oracle.threshold(f["ensemble"]["lambda"], f["ensemble"]["rho"])
            for name, f in fixtures.items()}


# ---------------------------------------------------------------------------
# checks


@dataclass
class Outcome:
    """What a job produced and what the checks found.

    `failures` holds (reason, wrong) pairs: wrong=True means a number the
    program reported disagrees with an independent computation; False
    means the job misbehaved (exit code, status) without a wrong number.
    """

    record: dict
    failures: list = field(default_factory=list)
    iterations: int | None = None
    rate_ratio: float | None = None

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failures.append((reason, wrong))


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def check(job: Job, exit_code: int, stderr: str, outputs: dict, claims: dict) -> Outcome:
    if job.kind == "evaluate":
        return _check_evaluate(job, exit_code, stderr, outputs)
    return _check_design(job, exit_code, stderr, outputs, claims)


def _check_design(job, exit_code, stderr, outputs, claims) -> Outcome:
    p = job.params
    report = outputs.get("report") or {}
    ensemble = outputs.get("ensemble")
    cert = report.get("certificate") or {}
    rec = {"exit": exit_code, "status": report.get("status"),
           "lambda": ensemble["lambda"] if ensemble else None,
           "rate": report.get("rate"), "t": report.get("t"),
           "certificate": cert.get("kind"), "rounds": report.get("rounds")}
    out = Outcome(record=rec)
    if exit_code != 0 or report.get("status") != "Optimal" or ensemble is None:
        out.fail(f"exit {exit_code}, status {report.get('status')}: {_last_line(stderr)}")
        return out

    lam, rho, eps = ensemble["lambda"], p["rho"], p["epsilon"]
    by_hand = oracle.rate(lam, rho)
    if abs(by_hand - report["rate"]) > 1e-12:
        out.fail(f"reported rate {report['rate']!r} != {by_hand!r} by hand", wrong=True)
    out.rate_ratio = by_hand / (1.0 - eps)

    eta = p.get("eta", RATE_ETA)
    lo = 0.0 if job.kind == "rate" else eta
    margin, at_x = oracle.min_margin(lam, rho, eps, lo)
    if margin <= 0.0:
        out.fail(f"design does not decode at eps={eps}: margin {margin:.3e} "
                 f"at x={at_x:.6g}", wrong=True)
    state, n = oracle.de_count(lam, rho, eps, eta)
    rec["exact_N"] = n if state == "reached" else None
    if state == "reached":
        out.iterations = n
    else:
        out.fail(f"design does not reach eta={eta} at eps={eps}: {state} at {n}",
                 wrong=True)

    if job.kind == "rate":
        claim = claims["r_max_x7"]
        cp = claim["params"]
        if (rho == cp["rho"] and eps == cp["epsilon"] and p["d_v"] == cp["d_v"]
                and abs(by_hand - claim["value"]) > claim["tolerance"]):
            out.fail(f"r_max_x7: R={by_hand:.6f}, quoted {claim['value']} "
                     f"+- {claim['tolerance']}", wrong=True)
    else:
        if by_hand < p["R_d"] - 1e-9:
            out.fail(f"rate {by_hand!r} below the required {p['R_d']}", wrong=True)
        claim = claims["dv_iteration_counts"]
        quoted = claim["counts"].get(str(p["d_v"]))
        if (job.kind == "min-iter" and p.get("ratio") == claim["params"]["ratio"]
                and quoted is not None and state == "reached"
                and abs(n - quoted) > claim["rel_tolerance"] * quoted):
            out.fail(f"dv_iteration_counts: N={n} at d_v={p['d_v']}, quoted {quoted}",
                     wrong=True)
    if job.kind == "utility" and cert.get("kind") not in ("SturmPass", "GramMatrix"):
        out.fail(f"status Optimal with a {cert.get('kind')} certificate")
    return out


def _check_evaluate(job, exit_code, stderr, outputs) -> Outcome:
    p = job.params
    summary = outputs.get("summary") or {}
    rec = {"exit": exit_code, "status": summary.get("status"),
           "exact_N": summary.get("exact_N")}
    out = Outcome(record=rec)
    state, n = oracle.de_count(p["lambda"], p["rho"], p["epsilon"], p["eta"])
    rec["oracle"] = [state, n]
    if p["side"] == "below":
        if state != "reached":
            out.fail(f"eps below threshold but the recursion {state} at {n}", wrong=True)
            return out
        if exit_code != 0:
            out.fail(f"exit {exit_code} below threshold: {_last_line(stderr)}")
            return out
        if summary.get("exact_N") != n:
            out.fail(f"exact_N={summary.get('exact_N')}, recursion reaches at {n}",
                     wrong=True)
        elif p["published"]:
            out.iterations = n
        out.rate_ratio = summary["rate"] / (1.0 - p["epsilon"])
        return out

    if state == "reached":
        out.fail(f"eps above threshold but the recursion reaches eta at {n}", wrong=True)
        return out
    if exit_code == 3:
        if summary.get("status") not in ("Stalled", "MaxIterations") \
                or summary.get("exact_N") is not None:
            out.fail(f"decoding failure reported as {summary.get('status')} "
                     f"with exact_N={summary.get('exact_N')}", wrong=True)
    elif exit_code == 2 and "curve gap" in stderr:
        out.fail("exit 2 (DegenerateGap from _estimates) instead of 3")
    else:
        out.fail(f"exit {exit_code} beyond threshold, expected 3: {_last_line(stderr)}")
    return out
