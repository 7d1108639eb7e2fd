"""The benchmark tracer's targets exist in the library, and its probes read
their calls.

``perfbench/tracer.py`` looks up every ``(module, function)`` in its
``TARGETS`` when a ``--trace 1`` run starts, so a renamed or deleted target
breaks every traced run; its probes read the arguments of a few targets, so
a signature change there turns them into ``probe_errors``. These tests
catch both in the suite, including the probes no session workload calls.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rlsol.cli  # noqa: F401  the tracer wraps a target there
from rlsol import conv, mlp, optimizers, rls
from rlsol.errors import DivergenceError

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"rlsol.{mod}"), fn, None))
    ]
    assert missing == []


def test_every_probe_reads_its_call():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        rls.update_precision(rls.init_state(rls.RlsConfig(3, 1)), np.ones(3))
        conv.im2col(conv.FeatureMap(np.ones((2, 4, 4))), conv.ConvLayer(np.ones((2, 2, 2))))
        model = mlp.MlpModel([mlp.Layer(np.ones((2, 3)))])
        mlp.batch_backward(model, rls.SampleBlock(np.ones((5, 3)), np.ones((5, 2))))
    finally:
        tracer.uninstall()
    stats = tracer.stats(set())
    assert stats["trace.probe_errors"] == 0
    assert stats["rls.update_precision.flops"] == 5 * 3 * 3 + 2 * 3
    assert stats["conv.im2col.bytes"] == 2 * 2 * 2 * 9 * 8
    assert stats["mlp.batch_backward.samples"] == 5


# the tracer counts bgd_update calls that raise DivergenceError; no workload
# run diverges, so one diverging call here is what shows the count works
def test_divergence_counter_reads_bgd_update():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        window = rls.SampleBlock(np.arange(24.0).reshape(8, 3), np.ones((8, 1)))
        with pytest.raises(DivergenceError):
            optimizers.bgd_update(np.zeros((1, 3)), window, optimizers.GdConfig(10.0, 20), 1.0)
    finally:
        tracer.uninstall()
    stats = tracer.stats(set())
    assert stats["optimizers.bgd_update.calls"] == 1
    assert stats["optimizers.bgd_update.diverged"] == 1
    assert stats["trace.probe_errors"] == 0
