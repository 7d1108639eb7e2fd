"""Reference loops that measure how fast the machine is running right now.

On a shared machine the same code runs up to 1.6x slower for stretches of
seconds to minutes, and how much depends on the kind of code: interpreter-
bound loops, page-faulting allocations of large arrays and BLAS calls each
slow down by their own factor. So each workload has a reference loop that
mimics its hot path as the library first had it, written here in plain
numpy and never changed with the library. ``run.py`` times the loop just
before it starts a workload process and just after that process has ended,
each time in a fresh process (``python3 calibrate.py WORKLOAD [setup]``), so
no heap or allocator state the library, or an earlier pass, leaves behind
reaches the loop. The ratio of the call's wall time to the loop's time
cancels the machine's state, and ``steps_per_s`` is the rate at the loop's
nominal time.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

_rng = np.random.default_rng(12345)
_X16 = _rng.standard_normal((8, 16))
_Y16 = _rng.standard_normal((8, 1))
_X256 = _rng.standard_normal((64, 256))
_H256 = _rng.standard_normal((256, 256))
_W512 = _rng.standard_normal((512, 512)) / 23.0
_V512 = _rng.standard_normal((2, 512)) / 23.0
_X512 = _rng.standard_normal((16, 512))
_MAPS = _rng.standard_normal((4, 64, 18, 18))
_K1024 = _rng.standard_normal(1024) * 1e-3


def _drift_canonical(n: int) -> float:
    """Window cost and gradient steps on 8x16 blocks, with the per-call
    validation the drift learners do."""
    w = np.zeros((1, 16))
    total = 0.0
    for i in range(n):
        w = np.asarray(w, dtype=np.float64)
        if not np.isfinite(w).all():
            raise FloatingPointError
        for b in range(10):
            resid = _Y16 - _X16 @ w.T
            total += 0.97 ** (10 - b) * np.sum(resid**2) / 8
        phi = _X16.T @ _X16 + 1e-6 * np.eye(16)
        w = w - 5e-3 * (w @ phi - (_Y16.T @ _X16))
    return float(total)


def _drift_wide(n: int) -> float:
    """Rank-one precision updates at p = 256 with fresh arrays, plus two
    held-out evaluations per step."""
    p = np.eye(256)
    w = np.zeros((1, 256))
    total = 0.0
    for i in range(n):
        x = _X256[i % 64]
        px = p @ x
        gain = px / (0.97 + x @ px)
        p = (p - np.outer(px, gain)) / 0.97
        p = (p + p.T) / 2.0
        if not np.isfinite(p).all():
            raise FloatingPointError
        w = w - 0.01 * (w @ x - 1.0) * gain
        for _ in range(2):
            total += float(np.mean((_H256 @ w.T) ** 2))
        if i % 16 == 15:
            p = np.eye(256)
    return total


def _mlp_session(n: int) -> float:
    """Per-sample forward and backward through a 512-512-2 relu MLP, with
    a full outer-product gradient per sample."""
    grads = [np.zeros_like(_W512), np.zeros_like(_V512)]
    for i in range(n):
        x = _X512[i % 16]
        a = _W512 @ x
        u = (a > 0).astype(np.float64) * a
        z = _V512 @ u
        e = np.exp(z - z.max())
        d = e / e.sum() - np.array([1.0, 0.0])
        grads[1] += np.outer(d, u)
        d1 = (a > 0).astype(np.float64) * (_V512.T @ d)
        grads[0] += np.outer(d1, x)
    return float(grads[0][0, 0])


def _conv_session(n: int) -> float:
    """im2col lowering of 64x18x18 maps for a 4x4 kernel, then the
    weighted gradient product."""
    total = 0.0
    for i in range(n):
        windows = np.lib.stride_tricks.sliding_window_view(_MAPS[i % 4], (4, 4), axis=(1, 2))
        cols = np.ascontiguousarray(windows.transpose(1, 2, 0, 3, 4).reshape(225, 1024).T)
        resid = _K1024 @ cols - 1.0
        total += float((cols @ (2.0 * resid))[0])
    return total


# workload -> (loop, iterations, nominal seconds). The nominal time is the
# loop's median on the 2-vCPU guest the benchmark was built on; it only
# scales the reported rate.
LOOPS = {
    "drift-canonical": (_drift_canonical, 3000, 0.40),
    "drift-wide": (_drift_wide, 500, 0.40),
    "mlp-session": (_mlp_session, 400, 0.40),
    "conv-session": (_conv_session, 250, 0.40),
}
# Set-up (interpreter start, imports, input generation) is interpreter-bound
# whatever the workload, so its slowdown comes from a short pass of the
# drift-canonical loop.
SETUP_LOOP = (_drift_canonical, 1000, 0.40 / 3)


def slowdown(loop_spec) -> float:
    """One pass of a ``(loop, iterations, nominal seconds)`` entry: its wall
    time over its nominal time."""
    loop, iterations, nominal = loop_spec
    start = time.perf_counter()
    loop(iterations)
    return (time.perf_counter() - start) / nominal



def main(argv: list[str]) -> None:
    """``python3 calibrate.py WORKLOAD [setup]``: one pass of the workload's
    loop (and of the set-up loop) in a fresh process, printed as JSON."""
    result = {"setup": slowdown(SETUP_LOOP)} if "setup" in argv[1:] else {}
    result["loop"] = slowdown(LOOPS[argv[0]])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
