"""Command-line surface and the figure-reproduction harness.

Subcommands: validate, evaluate, estimate, design, certify, reproduce.
evaluate, estimate, design and certify print their result JSON, or with
--out PREFIX write it to PREFIX.<name>.json after any other file, then a
manifest, all through `_emit`.  All file outputs are written atomically
(temp file + rename); each manifest records flags, output paths, content
hashes and the command's wall time from its entry (per figure for
`reproduce`), and identical flags yield byte-identical outputs.  A
utility design's report also records the zeta_tilde it used.  `design`
and `reproduce` manifests also record the HiGHS options and the numpy,
scipy and HiGHS versions, on which the low digits of a design depend.
`main` parses with one parser per process, built on its first call.

`certify` takes an ensemble, (epsilon, eta), the step size --t and an
optional --zeta-tilde (default zeta/2), and decides the exact step
constraint on [zeta_tilde, xi]; it reports the polynomial degree, the
margin and, on failure, witness_x with the curve gap there.

Exit codes: 0 success, 2 usage or validation error, 3 decoding or
certificate failure (`evaluate` or `estimate` past the threshold, a
failing `certify`, a `design` of any objective with status
CertificateFail), 4 solver reported Infeasible, a min-iter barrier that
stopped at IterLimit, or a numerical failure (`NumericalFailure`, such
as a design LP that fails its KKT gate).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

import numpy as np
import scipy

from . import estimators, sip_compile
from .de_engine import DEContext, ReachedTarget, Stalled, de_trace, psi
from .ensemble import (DegreeDistribution, Ensemble, graphical_complexity,
                       rate as ensemble_rate)
from .errors import DegenerateGap, LdpcForgeError, NumericalFailure
from .solve import (DEFAULT_GRID_N, LP_OPTIONS, DesignSpec, SolveReport,
                    design_min_iterations, design_rate, design_utility)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DECODING = 3
EXIT_SOLVER = 4

# ---------------------------------------------------------------------------
# fixtures and claims


@dataclass(frozen=True)
class Fixture:
    name: str
    ensemble: Ensemble
    params: dict
    provenance: str
    rate_label: Optional[float]
    rate_expected: Optional[float]


@dataclass(frozen=True)
class FixtureSet:
    entries: tuple

    def get(self, name: str) -> Fixture:
        for f in self.entries:
            if f.name == name:
                return f
        raise KeyError(name)

    def __iter__(self):
        return iter(self.entries)


def _data_text(filename: str) -> str:
    return resources.files("ldpc_forge.data").joinpath(filename).read_text()


def load_fixtures() -> FixtureSet:
    raw = json.loads(_data_text("fixtures.json"))
    entries = []
    for row in raw["entries"]:
        e = Ensemble.from_json_dict(row["ensemble"], published=True)
        e.validate()
        entries.append(Fixture(
            name=row["name"], ensemble=e, params=row["params"],
            provenance=row["provenance"], rate_label=row["rate_label"],
            rate_expected=row["rate_expected"]))
    return FixtureSet(entries=tuple(entries))


def load_claims() -> dict:
    return json.loads(_data_text("paper_claims.json"))["claims"]


# ---------------------------------------------------------------------------
# plumbing


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(header: list[str], rows: Iterable[tuple], comments: tuple) -> str:
    """CSV text with \r\n line ends, then one "# " line per comment.

    The csv module writes None as an empty cell and a float as its repr.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    for c in comments:
        text += f"# {c}\r\n"
    return text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _highs_version() -> Optional[str]:
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    parts = [getattr(_core, f"HIGHS_VERSION_{p}", None) for p in ("MAJOR", "MINOR", "PATCH")]
    return None if None in parts else ".".join(str(p) for p in parts)


def solver_settings() -> dict:
    """LP options and library versions, for manifests of LP-backed runs."""
    return {"lp_options": dict(LP_OPTIONS),
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                         "highs": _highs_version()}}


@dataclass
class RunManifest:
    """Flags, outputs and their hashes; wall_time_s runs from `started`
    (by default the manifest's creation) to the manifest's own write."""

    command: str
    parameters: dict
    settings: dict
    started: float = field(default_factory=time.perf_counter)
    artifacts: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def add(self, path: str, text: str) -> None:
        _atomic_write(path, text)
        self.outputs.append(path)
        self.artifacts[os.path.basename(path)] = _sha256(text)

    def write(self, path: str) -> None:
        payload = {"command": self.command, "parameters": self.parameters,
                   "artifacts": self.artifacts, "outputs": self.outputs,
                   "wall_time_s": round(time.perf_counter() - self.started, 3),
                   **self.settings}
        _atomic_write(path, _json_text(payload))


def _load_json_arg(value: str) -> dict:
    """Accept a path to a JSON file or an inline JSON string."""
    if os.path.exists(value):
        with open(value) as fh:
            return json.load(fh)
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise LdpcForgeError(f"not a file and not valid JSON: {value!r}") from exc


def _load_ensemble_arg(value: str, published: bool = True) -> Ensemble:
    data = _load_json_arg(value)
    if "lambda" not in data or "rho" not in data:
        raise LdpcForgeError("ensemble JSON needs 'lambda' and 'rho' keys")
    e = Ensemble.from_json_dict(data, published=published)
    e.validate()
    return e


def _load_rho_arg(value: str) -> DegreeDistribution:
    data = _load_json_arg(value)
    if "rho" in data:
        data = data["rho"]
    d = DegreeDistribution.from_json_dict(data, published=True)
    d.validate()
    return d


def _emit(args, name: str, data: dict, *files: tuple, **settings) -> None:
    """Print `data` as JSON; with --out write each (suffix, text) of `files`,
    then <out>.<name>.json, then the manifest of the command's set flags."""
    text = _json_text(data)
    if not args.out:
        sys.stdout.write(text)
        return
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "started") and v is not None}
    man = RunManifest(args.command, flags, settings=settings, started=args.started)
    for suffix, content in files + ((f".{name}.json", text),):
        man.add(args.out + suffix, content)
    man.write(args.out + ".manifest.json")


def _trace_comments(trace) -> tuple:
    s = trace.status
    if isinstance(s, ReachedTarget):
        return (f"status=ReachedTarget N={s.iterations}",)
    if isinstance(s, Stalled):
        return (f"status=Stalled at_iteration={s.at_iteration} P={s.P_value!r}",)
    return (f"status=MaxIterations l_max={s.l_max}",)


def _estimates(e: Ensemble, ctx: DEContext, zeta_tilde: Optional[float]) -> dict:
    """Rate, the curve estimates and the utility; no inverse of rho.

    approx_N and lower_bound come from `estimators.code_estimates`, which
    integrates over the recursion variable P; only the utility's left end
    z(zeta_tilde) is bisected.  Raises DegenerateGap when lam touches psi.
    """
    est = estimators.code_estimates(e, ctx)
    util = estimators.utility(e.lam, ctx, zeta_tilde=zeta_tilde)
    return {
        "rate": ensemble_rate(e),
        "approx_N": est.approx_N,
        "lower_bound": est.lower_bound,
        "utility": util.value,
        "utility_argmin_x": util.argmin_x,
    }


def _no_estimates(e: Ensemble) -> dict:
    """Summary fields when lam touches psi on [zeta, xi] and the curve
    estimates are undefined: only the rate is reported."""
    return {"rate": ensemble_rate(e), "approx_N": None, "lower_bound": None,
            "utility": None, "utility_argmin_x": None}


def _report_dict(rep: SolveReport, rho: DegreeDistribution) -> dict:
    out = {
        "status": rep.status,
        "method": rep.method,
        "objective": rep.objective,
        "t": rep.t,
        "max_violation": rep.max_violation,
        "optimality_gap": rep.optimality_gap,
        "rounds": rep.rounds,
        "detail": rep.detail,
        "ensemble": None,
        "certificate": None,
    }
    if rep.zeta_tilde is not None:
        out["zeta_tilde"] = rep.zeta_tilde
    if rep.lam is not None:
        out["ensemble"] = Ensemble(lam=rep.lam, rho=rho).to_json_dict()
        out["rate"] = ensemble_rate(Ensemble(lam=rep.lam, rho=rho))
    if rep.certificate is not None:
        c = rep.certificate
        out["certificate"] = {
            "kind": c.kind, "margin": c.margin,
            "witness_x": c.witness, "witness_value": c.witness_value,
        }
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    e = _load_ensemble_arg(args.ensemble, published=not args.strict)
    R = ensemble_rate(e)
    sys.stdout.write(_json_text({
        "valid": True,
        "rate": R,
        "graphical_complexity": graphical_complexity(e.rho, R),
        "d_v": max(e.lam.degrees),
        "d_c": max(e.rho.degrees),
    }))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    e = _load_ensemble_arg(args.ensemble)
    ctx = DEContext.create(e.rho, args.epsilon, args.eta)
    trace = de_trace(e, ctx)
    summary = {"epsilon": args.epsilon, "eta": args.eta,
               "status": type(trace.status).__name__,
               "exact_N": trace.iterations}
    if trace.iterations is None:
        # stalled (or cut at DEFAULT_L_MAX): lam may touch psi on [zeta, xi]
        summary.update(_no_estimates(e))
    else:
        summary.update(_estimates(e, ctx, args.zeta_tilde))
    csv_text = render_csv(["iteration", "P"], enumerate(trace.probs.tolist()),
                          _trace_comments(trace))
    _emit(args, "summary", summary, (".trace.csv", csv_text))
    return EXIT_OK if trace.iterations is not None else EXIT_DECODING


def cmd_estimate(args) -> int:
    e = _load_ensemble_arg(args.ensemble)
    ctx = DEContext.create(e.rho, args.epsilon, args.eta)
    summary = {"epsilon": args.epsilon, "eta": args.eta}
    code = EXIT_OK
    try:
        summary.update(_estimates(e, ctx, args.zeta_tilde))
    except DegenerateGap:
        # past the threshold lam crosses psi: a decoding failure
        summary.update(_no_estimates(e))
        code = EXIT_DECODING
    _emit(args, "summary", summary)
    return code


def _grid_n(args) -> int:
    if args.grid_n < 1:
        raise LdpcForgeError(f"--grid-n must be >= 1, got {args.grid_n}")
    return args.grid_n


def cmd_design(args) -> int:
    rho = _load_rho_arg(args.rho)
    grid_n = _grid_n(args)
    if args.objective == "rate":
        rep = design_rate(rho, args.epsilon, args.dv, grid_n)
    else:
        if args.rd is None or args.eta is None:
            raise LdpcForgeError("--rd and --eta are required for this objective")
        spec = DesignSpec(rho=rho, epsilon=args.epsilon, eta=args.eta,
                          R_d=args.rd, d_v=args.dv, zeta_tilde=args.zeta_tilde,
                          grid_n=grid_n)
        if args.objective == "utility":
            rep = design_utility(spec)
        else:
            rep = design_min_iterations(spec)

    files = () if rep.lam is None else (
        (".ensemble.json", Ensemble(lam=rep.lam, rho=rho).to_json(indent=2) + "\n"),)
    _emit(args, "report", _report_dict(rep, rho), *files, **solver_settings())
    if rep.status == "CertificateFail":
        print(f"design: CertificateFail: margin {rep.certificate.margin:.3e} at "
              f"x={rep.certificate.witness!r}", file=sys.stderr)
        return EXIT_DECODING
    if rep.status != "Optimal":
        print(f"design: {rep.status}: {rep.detail}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_certify(args) -> int:
    e = _load_ensemble_arg(args.ensemble)
    ctx = DEContext.create(e.rho, args.epsilon, args.eta)
    zt = 0.5 * ctx.zeta if args.zeta_tilde is None else args.zeta_tilde
    cp = sip_compile.compile_constraint(e.lam, args.t, e.rho, args.epsilon, zt, ctx.xi)
    cert = sip_compile.certify(cp)
    _emit(args, "certificate", {
        "kind": cert.kind, "passed": cert.passed, "margin": cert.margin,
        "t": args.t, "zeta_tilde": zt, "degree": cp.D,
        "witness_x": cert.witness, "witness_value": cert.witness_value,
    })
    return EXIT_OK if cert.passed else EXIT_DECODING


# ---------------------------------------------------------------------------
# reproduction harness


def _count_at_targets(e: Ensemble, epsilon: float, targets: list[float]) -> dict:
    """Iteration counts at several targets from a single recursion run."""
    ctx = DEContext.create(e.rho, epsilon, min(targets))
    trace = de_trace(e, ctx)
    probs = np.asarray(trace.probs)
    out = {}
    for tgt in targets:
        hit = np.nonzero(probs <= tgt + 1e-12 * (1.0 + tgt))[0]
        out[tgt] = int(hit[0]) if hit.size else None
    return out


def repro_fig2(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Transfer curves psi and lam for the three x^7 designs at eps=0.5."""
    fx = load_fixtures()
    rho = fx.get("x7_poc").ensemble.rho
    eps, eta = 0.5, 1e-5
    ctx = DEContext.create(rho, eps, eta)
    poc = design_rate(rho, eps, 16, grid_n).lam
    coc45 = design_min_iterations(
        DesignSpec(rho=rho, epsilon=eps, eta=eta, R_d=0.45, d_v=16, grid_n=grid_n)).lam
    coc40 = design_min_iterations(
        DesignSpec(rho=rho, epsilon=eps, eta=eta, R_d=0.40, d_v=16, grid_n=grid_n)).lam
    xs = np.linspace(0.0, ctx.xi, 257)
    psis = psi(ctx, xs)
    pub = [fx.get(n).ensemble.lam for n in ("x7_poc", "x7_coc_r045", "x7_coc_r040")]
    rows = []
    for x, y in zip(xs, psis):
        rows.append((float(x), float(y),
                     float(poc.eval(x)), float(pub[0].eval(x)),
                     float(coc45.eval(x)), float(pub[1].eval(x)),
                     float(coc40.eval(x)), float(pub[2].eval(x))))
    header = ["x", "psi", "lam_poc", "lam_poc_published",
              "lam_coc_r045", "lam_coc_r045_published",
              "lam_coc_r040", "lam_coc_r040_published"]
    return header, rows, (f"epsilon={eps} eta={eta} dv=16",)


def repro_fig3(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Exact vs approximate iteration counts over residual targets."""
    fx = load_fixtures()
    eps = 0.48
    targets = [float(t) for t in np.logspace(-1, -5, 9)]
    names = ("mix_acc_r048", "mix_acc_r050")
    exact = {n: _count_at_targets(fx.get(n).ensemble, eps, targets) for n in names}
    rows = []
    for tgt in targets:
        row = [tgt]
        for n in names:
            e = fx.get(n).ensemble
            ctx = DEContext.create(e.rho, eps, tgt)
            row.append(exact[n][tgt])
            row.append(estimators.code_estimates(e, ctx).approx_N)
        rows.append(tuple(row))
    header = ["target", "exact_N_r048", "approx_N_r048",
              "exact_N_r050", "approx_N_r050"]
    return header, rows, (f"epsilon={eps}",)


def _design_pair_counts(ratio: float, d_v: int, grid_n: int,
                        eta: float = 1e-3, R_d: float = 0.5) -> dict:
    """Design by both objectives at one rate-to-capacity point, then count."""
    fx = load_fixtures()
    rho = fx.get("mix_dv16").ensemble.rho
    eps = 1.0 - R_d / ratio
    spec = DesignSpec(rho=rho, epsilon=eps, eta=eta, R_d=R_d, d_v=d_v, grid_n=grid_n)
    out = {"ratio": ratio, "epsilon": eps}
    for tag, designer in (("miniter", design_min_iterations), ("utility", design_utility)):
        rep = designer(spec)
        if rep.lam is None:
            out[tag] = None
            continue
        ctx = DEContext.create(rho, eps, eta)
        trace = de_trace(Ensemble(lam=rep.lam, rho=rho), ctx)
        out[tag] = trace.iterations
    return out


def repro_fig4(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Iteration counts of freshly designed codes vs the published ones."""
    fx = load_fixtures()
    rows = []
    for ratio, tag in ((0.90, "090"), (0.94, "094"), (0.98, "098")):
        got = _design_pair_counts(ratio, 16, grid_n)
        pub = {}
        for kind in ("approx", "utility"):
            f = fx.get(f"mix_cmp_{kind}_{tag}")
            ctx = DEContext.create(f.ensemble.rho, f.params["epsilon"], f.params["eta"])
            pub[kind] = de_trace(f.ensemble, ctx).iterations
        rows.append((ratio, got["epsilon"], got["miniter"], got["utility"],
                     pub["approx"], pub["utility"]))
    header = ["ratio", "epsilon", "N_miniter", "N_utility",
              "N_published_approx", "N_published_utility"]
    return header, rows, ("R_d=0.5 eta=1e-3 dv=16",)


def repro_fig5(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Iteration counts vs d_v at rate-to-capacity 0.97."""
    fx = load_fixtures()
    claims = load_claims()["dv_iteration_counts"]
    rows = []
    for name, d_v in (("mix_dv12", 12), ("mix_dv16", 16), ("mix_dv30", 30)):
        f = fx.get(name)
        eps, eta = f.params["epsilon"], f.params["eta"]
        ctx = DEContext.create(f.ensemble.rho, eps, eta)
        n_pub = de_trace(f.ensemble, ctx).iterations
        n_new = None
        rep = design_min_iterations(DesignSpec(
            rho=f.ensemble.rho, epsilon=eps, eta=eta, R_d=0.5, d_v=d_v, grid_n=grid_n))
        if rep.lam is not None:
            n_new = de_trace(Ensemble(lam=rep.lam, rho=f.ensemble.rho), ctx).iterations
        rows.append((d_v, 0.97, eps, n_pub, n_new, claims["counts"][str(d_v)]))
    header = ["d_v", "ratio", "epsilon", "exact_N_published", "exact_N_redesigned",
              "quoted_N"]
    return header, rows, ("eta=1e-3 R=0.5",)


def repro_fig6(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Maximum rate-to-capacity ratio vs d_v for three erasure rates."""
    fx = load_fixtures()
    rho = fx.get("x7_poc").ensemble.rho
    rows = []
    for eps, name in ((0.48, "x7_ratedv_e048"), (0.50, "x7_ratedv_e050"),
                      (0.52, "x7_ratedv_e052")):
        pub_rate = ensemble_rate(fx.get(name).ensemble)
        for d_v in (4, 6, 8, 10, 12, 16, 20):
            rep = design_rate(rho, eps, d_v, grid_n)
            if rep.status != "Optimal":
                rows.append((eps, d_v, None, None, None))
                continue
            ratio = rep.objective / (1.0 - eps)
            pub = pub_rate / (1.0 - eps) if d_v == 16 else None
            rows.append((eps, d_v, rep.objective, ratio, pub))
    header = ["epsilon", "d_v", "R_max", "ratio", "published_lambda_ratio"]
    return header, rows, ()


def repro_fig7(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Iteration counts at several targets for the eta-matched designs."""
    fx = load_fixtures()
    claims = load_claims()["eta_iteration_counts"]
    targets = [1e-2, 1e-3, 1e-5]
    rows = []
    for name in ("mix_eta2", "mix_eta3", "mix_eta5"):
        f = fx.get(name)
        eps, design_eta = f.params["epsilon"], f.params["eta"]
        counts = _count_at_targets(f.ensemble, eps, targets)
        redesigned = {t: None for t in targets}
        rep = design_min_iterations(DesignSpec(
            rho=f.ensemble.rho, epsilon=eps, eta=design_eta, R_d=0.488,
            d_v=16, grid_n=grid_n))
        if rep.lam is not None:
            redesigned = _count_at_targets(
                Ensemble(lam=rep.lam, rho=f.ensemble.rho), eps, targets)
        for tgt in targets:
            quoted = claims["counts"].get(repr(design_eta)) if tgt == 1e-5 else None
            rows.append((design_eta, tgt, counts[tgt], redesigned[tgt], quoted))
    header = ["design_eta", "target", "exact_N_published", "exact_N_redesigned",
              "quoted_N_at_1e-5"]
    return header, rows, ("epsilon=0.5 R=0.488",)


def repro_table1(grid_n: int) -> tuple[list[str], list[tuple], tuple]:
    """Recomputed rate of every stored design vs its printed label."""
    rows = []
    for f in load_fixtures():
        R = ensemble_rate(f.ensemble)
        err = None if f.rate_expected is None else abs(R - f.rate_expected)
        rows.append((f.name, R, f.rate_label, f.rate_expected, err,
                     graphical_complexity(f.ensemble.rho, R), f.provenance))
    header = ["name", "computed_rate", "rate_label", "rate_expected",
              "abs_err", "graphical_complexity", "provenance"]
    return header, rows, ()


_REPRO = {
    "fig2": repro_fig2,
    "fig3": repro_fig3,
    "fig4": repro_fig4,
    "fig5": repro_fig5,
    "fig6": repro_fig6,
    "fig7": repro_fig7,
    "table1": repro_table1,
}


def cmd_reproduce(args) -> int:
    figures = tuple(_REPRO) if args.figure == "all" else (args.figure,)
    grid_n = _grid_n(args)
    for fig in figures:
        # each figure's manifest is timed from the start of that figure
        man = RunManifest("reproduce", {"figure": fig, "grid_n": grid_n},
                          settings=solver_settings())
        header, rows, comments = _REPRO[fig](grid_n)
        path = os.path.join(args.out, f"{fig}.csv")
        man.add(path, render_csv(header, rows, comments))
        man.write(os.path.join(args.out, f"{fig}.manifest.json"))
        print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves no state on it."""
    p = argparse.ArgumentParser(
        prog="ldpc-forge",
        description="Design and evaluate erasure-channel degree distributions "
                    "for fast message-passing decoding.")
    sub = p.add_subparsers(dest="command", required=True)

    def common_eval(sp):
        sp.add_argument("ensemble", help="path or inline JSON with lambda/rho maps")
        sp.add_argument("--epsilon", type=float, required=True)
        sp.add_argument("--eta", type=float, required=True)
        sp.add_argument("--zeta-tilde", type=float, default=None)
        sp.add_argument("--out", help="output path prefix")

    sp = sub.add_parser("validate", help="check simplex constraints, report rate")
    sp.add_argument("ensemble")
    sp.add_argument("--strict", action="store_true",
                    help="use the exact 1e-9 sum tolerance instead of the "
                         "published-coefficient tolerance")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("evaluate", help="run the erasure recursion and estimators")
    common_eval(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("estimate", help="estimators only, no recursion run")
    common_eval(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("design", help="solve for a variable-side distribution")
    sp.add_argument("--objective", choices=("rate", "utility", "min-iter"),
                    required=True)
    sp.add_argument("--rho", required=True, help="path or inline JSON degree map")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--dv", type=int, required=True)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--rd", type=float, help="required code rate")
    sp.add_argument("--zeta-tilde", type=float, default=None)
    sp.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N)
    sp.add_argument("--out", help="output path prefix")
    sp.set_defaults(func=cmd_design)

    sp = sub.add_parser("certify", help="compile and certify the step constraint")
    sp.add_argument("ensemble")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--t", type=float, required=True, help="step size to certify")
    sp.add_argument("--zeta-tilde", type=float, default=None)
    sp.add_argument("--out", help="output path prefix")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("reproduce", help="regenerate a result dataset")
    sp.add_argument("figure", choices=(*_REPRO, "all"))
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N)
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (LdpcForgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
