"""The benchmark tracer's targets exist in the library.

``perfbench/tracer.py`` looks up every ``(module, function)`` in its
``TARGETS`` when a ``--trace 1`` run starts, so a renamed or deleted target
breaks every traced run; this test catches that in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"rlsol.{mod}"), fn, None))
    ]
    assert missing == []
