"""Spans around calls into the library's public functions, from outside it.

``from .rls import update_precision`` copies the binding into the importing
module, so the tracer replaces every ``rlsol.*`` module attribute that *is*
a target function with a wrapper, and ``uninstall`` puts every original
back. Spans (name, start, end, parent) are kept in memory and written out
by ``write_spans`` when the run ends.

Besides time, a few counts are computed from the call arguments, never from
inside the library (they are labelled "computed" in the benchmark notes):

- ``rls.update_precision.flops``: 5 p^2 + 2 p per call, the operation count
  of the textbook rank-one update (``P x``: 2 p^2; ``x' P x``: 2 p; the
  rank-one downdate and the division by beta: 3 p^2);
- ``conv.im2col.bytes``: p * M * 8 per call, the float64 patch matrix;
- ``conv.im2col.distinct_ratio``: distinct feature-map objects lowered,
  over calls;
- ``mlp.batch_backward.samples``: rows of the batch argument;
- ``optimizers.bgd_update.diverged``: calls that raised ``DivergenceError``.

A probe that cannot read its arguments (say, after a signature change) is
counted in ``probe_errors`` and never disturbs the call it watches.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

PACKAGE = "rlsol"

# (module, function) pairs wrapped in a traced run.
TARGETS = [
    ("cli", "cmd_bench_run"),
    ("bench", "generate_stream"),
    ("bench", "run_learner"),
    ("bench", "evaluate"),
    ("optimizers", "bgd_update"),
    ("optimizers", "precond_update_stage"),
    ("optimizers", "precond_gd_iterate"),
    ("rls", "lse_cost"),
    ("rls", "accumulate_correlations"),
    ("rls", "update_precision"),
    ("rls", "rls_step"),
    ("linalg", "as_matrix"),
    ("linalg", "as_vector"),
    ("linalg", "spd_solve"),
    ("mlp", "run_session"),
    ("mlp", "batch_backward"),
    ("mlp", "forward"),
    ("mlp", "backward"),
    ("mlp", "rls_update_layers"),
    ("mlp", "plain_update_layers"),
    ("conv", "run_conv_session"),
    ("conv", "conv_update_stage"),
    ("conv", "im2col"),
    ("conv", "conv_gradient"),
    ("conv", "conv_virtual_input"),
]


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.flops = 0
        self.im2col_bytes = 0
        self.samples = 0
        self.diverged = 0
        self.probe_errors = 0
        self._maps: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for idx, (mod_name, fn_name) in enumerate(TARGETS):
            original = getattr(by_name[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- wrapping ----------------------------------------------------------

    def _probe(self, name: str, args) -> None:
        if name == "rls.update_precision":
            p = args[0].config.input_dim
            self.flops += 5 * p * p + 2 * p
        elif name == "conv.im2col":
            fm, layer = args[0], args[1]
            c, kh, kw = layer.kernel.shape
            _, h, w = fm.data.shape
            pad, stride = layer.padding, layer.stride
            m = ((h + 2 * pad - kh) // stride + 1) * ((w + 2 * pad - kw) // stride + 1)
            self.im2col_bytes += c * kh * kw * m * 8
            # keep a reference so an id is never reused within the run
            self._maps.setdefault(id(fm), fm)
        elif name == "mlp.batch_backward":
            self.samples += args[1].x.shape[0]

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        probed = name in ("rls.update_precision", "conv.im2col", "mlp.batch_backward")
        diverges = name == "optimizers.bgd_update"
        divergence = importlib.import_module(f"{PACKAGE}.errors").DivergenceError
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(span)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                if diverges and isinstance(err, divergence):
                    self.diverged += 1
                raise
            finally:
                span_end[span] = clock()
                stack.pop()
                if probed:
                    try:
                        self._probe(name, args)
                    except Exception:
                        self.probe_errors += 1

        return wrapper

    # -- results -----------------------------------------------------------

    def durations(self):
        """Per-span (name index, duration, self time) arrays."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, dur, dur - child

    def stats(self, timed: set[str]) -> dict:
        """Per-layer numbers of this run, keyed ``<module>.<function>.<stat>``;
        for each name in ``timed``, ``<name>.durations_ms`` lists the
        per-call times, from which percentiles are taken."""
        names, dur, self_time = self.durations()
        out: dict = {}
        for idx, name in enumerate(self.names):
            mask = names == idx
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.busy_s"] = float(dur[mask].sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
            if name in timed:
                out[f"{name}.durations_ms"] = (dur[mask] * 1000.0).tolist()
        calls = out["conv.im2col.calls"]
        out["rls.update_precision.flops"] = self.flops
        out["conv.im2col.bytes"] = self.im2col_bytes
        out["conv.im2col.distinct_ratio"] = len(self._maps) / calls if calls else 0.0
        out["mlp.batch_backward.samples"] = self.samples
        out["optimizers.bgd_update.diverged"] = self.diverged
        out["trace.probe_errors"] = self.probe_errors
        return out

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, (n, p) in enumerate(zip(self.span_name, self.span_parent)):
                record = {
                    "id": i,
                    "name": self.names[n],
                    "start": self.span_start[i] - origin,
                    "end": self.span_end[i] - origin,
                    "parent": p,
                }
                fh.write(json.dumps(record) + "\n")
