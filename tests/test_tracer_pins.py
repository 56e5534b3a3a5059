"""The benchmark tracer's pins: what `perfbench/spans.py` wraps must exist.

The tracer wraps package functions by module and attribute name and reads
some of their positional arguments, so deleting or reshaping one of them
breaks `perfbench/run.py --trace 1`.  These tests read the tracer's table
without changing it, so such a change fails here first.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _layer(spans, module, attr):
    (entry,) = [e for e in spans.LAYERS if e[:2] == (module, attr)]
    return getattr(importlib.import_module(module), attr), entry[3]


def test_every_layer_resolves(spans):
    assert spans.LAYERS
    for module, attr, _, _ in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize("module, attr, slots", [
    ("ldpc_forge.solve", "lp_solve", {1: "A_ub", 3: "A_eq"}),
    ("ldpc_forge._kernels", "transfer_gap_scan", {4: "zs"}),
    ("ldpc_forge._kernels", "bisect_increasing", {1: "targets"}),
])
def test_counted_arguments_keep_their_slots(spans, module, attr, slots):
    fn, _ = _layer(spans, module, attr)
    params = list(inspect.signature(fn).parameters.values())
    for pos, name in slots.items():
        assert params[pos].name == name
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_counters_read_those_slots(spans):
    # each counter, fed a positional call the way the package makes it
    _, rows = _layer(spans, "ldpc_forge.solve", "lp_solve")
    args = (np.zeros(2), np.zeros((3, 2)), np.zeros(3), np.zeros((1, 2)), np.zeros(1))
    assert rows["solve.lp_solve.rows"](args, {}, None) == 4
    _, points = _layer(spans, "ldpc_forge._kernels", "transfer_gap_scan")
    args = (np.ones(2), np.ones(8), 0.5, 0.0, np.linspace(0.5, 1.0, 5))
    assert points["kernels.transfer_gap_scan.points"](args, {}, None) == 5
    _, points = _layer(spans, "ldpc_forge._kernels", "bisect_increasing")
    args = (np.ones(8), np.full(7, 0.5), 1e-12)
    assert points["kernels.bisect_increasing.points"](args, {}, None) == 7


def test_shared_bindings():
    from ldpc_forge import _kernels, de_engine, estimators

    assert estimators.psi is de_engine.psi
    assert isinstance(_kernels.USING_NUMBA, bool)
