"""In-memory spans around ldpc-forge's layer functions.

`traced()` swaps each listed function for a wrapper in every
``ldpc_forge`` module namespace that holds it (callers that imported it by
name included), records a span per call (name, start, end, parent, job)
plus a few work counters, and puts every original back on exit.  The
package itself is not modified on disk and carries no tracing code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


def _rows(args, kwargs, out) -> int:
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else None)
    return sum(len(a) for a in (a_ub, a_eq) if a is not None)


def _arg_len(pos: int, key: str):
    def count(args, kwargs, out) -> int:
        return len(kwargs[key] if key in kwargs else args[pos])
    return count


# (module, attribute, span name, {counter name: function(args, kwargs, result)})
LAYERS = (
    ("ldpc_forge.solve", "lp_solve", "solve.lp_solve",
     {"solve.lp_solve.rows": _rows}),
    ("ldpc_forge.solve", "design_rate", "solve.design",
     {"solve.exchange_rounds": lambda a, k, out: out.rounds}),
    ("ldpc_forge.solve", "design_utility", "solve.design",
     {"solve.exchange_rounds": lambda a, k, out: out.rounds}),
    ("ldpc_forge.solve", "design_min_iterations", "solve.design",
     {"solve.exchange_rounds": lambda a, k, out: out.rounds}),
    ("ldpc_forge._kernels", "transfer_gap_scan", "kernels.transfer_gap_scan",
     {"kernels.transfer_gap_scan.points": _arg_len(4, "xs")}),
    ("ldpc_forge._kernels", "bisect_increasing", "kernels.bisect_increasing",
     {"kernels.bisect_increasing.points": _arg_len(1, "targets")}),
    ("ldpc_forge._kernels", "de_run", "kernels.de_run",
     {"kernels.de_run.iterations": lambda a, k, out: len(out[0]) - 1}),
    ("ldpc_forge.de_engine", "psi", "de_engine.psi", {}),
    ("ldpc_forge.de_engine", "psi_deriv", "de_engine.psi_deriv", {}),
    ("ldpc_forge.estimators", "utility", "estimators.utility", {}),
    ("ldpc_forge.estimators", "approx_iterations", "estimators.approx_iterations", {}),
    ("ldpc_forge.series", "taylor_for", "series.taylor_for", {}),
    ("ldpc_forge.sip_compile", "compile_constraint", "sip_compile.compile_constraint",
     {"sip_compile.degree": lambda a, k, out: out.D}),
    ("ldpc_forge.sip_compile", "certify", "sip_compile.certify",
     {"sip_compile.certify.failed": lambda a, k, out: int(not out.passed)}),
    ("ldpc_forge.cli", "_atomic_write", "cli.write", {}),
    ("ldpc_forge.cli", "_sha256", "cli.write", {}),
    ("ldpc_forge.cli", "main", "cli.main", {}),
)

# counters reported as a maximum over calls; the rest are summed
MAX_COUNTERS = {"sip_compile.degree"}


class Recorder:
    """Spans as [name, start, end, parent index, job id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        if name in MAX_COUNTERS:
            self.counts[name] = max(self.counts[name], int(value))
        else:
            self.counts[name] += int(value)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds, call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        incl, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            incl[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return incl, self_s, calls


def _wrap(fn, name: str, counters: dict, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        for cname, f in counters.items():
            rec.count(cname, f(args, kwargs, out))
        return out
    return wrapper


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ldpc_forge" or n.startswith("ldpc_forge."))]


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap every LAYERS function wherever the package binds it; restore after."""
    swapped = []
    try:
        for mod_name, attr, span, counters in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = _wrap(original, span, counters, rec)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        swapped.append((mod, key, original))
        yield rec
    finally:
        for mod, key, original in reversed(swapped):
            setattr(mod, key, original)


def bindings() -> dict:
    """(module, attribute) -> id of the bound object, over the whole package."""
    return {(mod.__name__, key): id(value)
            for mod in _package_modules() for key, value in vars(mod).items()}
