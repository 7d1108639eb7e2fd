"""Online-learned single-output-channel convolutional layer.

Evaluates the weighted squared-error objective, its gradient and the
weighted virtual input straight from the zero-padded feature map, tap by
tap, and runs the preconditioned update stage over a sequence of
weighted samples; the session keeps the bounded sample memory. A sample's
weight is a scale on its gamma map.

Output position k = (i, j) reads input (s i + a, s j + b) at kernel tap
(a, b), so both contractions the update needs are one small GEMM over the
(c, H W) map plus one strided (h', w') slice per tap:

- forward, w^T x_k for every k: correlate each tap's kernel column with
  the whole map, then add the strided slice of each tap plane;
- patch sum, sum_k v_k x_k: write v into the strided slice of each tap
  plane of a zero (kh kw, H, W) array, then contract it with the map.

These equal the lowered products w^T X and X v over the im2col patch
matrix X (p, M) (Chellapilla et al. 2006), which ``im2col`` keeps as the
reference, without building X. Their cost grows with kh kw relative to
the output positions. Measured for ``conv_gradient`` on one 64-channel
18x18 map (one core, OpenBLAS, one thread), tap by tap against lowered:
4x4 kernel 0.11-0.14 ms against 3.3 ms, 8x8 0.37-0.48 ms against 5.9-6.3 ms,
15x15 1.1-1.5 ms against 0.7-0.9 ms, so a kernel near the map size is
slower than lowering.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, InputError, ProtocolError
from .linalg import as_array, as_vector
from .optimizers import GdConfig
from .rls import RlsConfig, RlsState, advance_precision, checked_count, init_state

# Regularizer default for the conv precision state.
DEFAULT_CONV_DELTA = 0.1


@dataclass
class FeatureMap:
    """Dense (channel, row, col) feature values."""

    data: np.ndarray

    def __post_init__(self):
        self.data = as_array(self.data, "feature map", 3)


@dataclass
class ConvLayer:
    """Single-output-channel convolution: kernel (c, kh, kw), stride, padding."""

    kernel: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        self.kernel = as_array(self.kernel, "kernel", 3)
        self.stride = checked_count(self.stride, "stride", 1)
        self.padding = checked_count(self.padding, "padding", 0)

    @property
    def patch_dim(self) -> int:
        c, kh, kw = self.kernel.shape
        return c * kh * kw


def unroll_kernel(kernel: np.ndarray) -> np.ndarray:
    """Kernel as a length-p row in (channel, kernel row, kernel col) order."""
    return np.asarray(kernel, dtype=np.float64).reshape(-1)


def roll_kernel(vec: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Inverse of unroll_kernel."""
    vec = as_vector(vec, "kernel vector")
    c, kh, kw = shape
    if vec.size != c * kh * kw:
        raise DimensionError(f"vector length {vec.size} != kernel size {c * kh * kw}")
    return vec.reshape(shape)


def output_shape(fm: FeatureMap, layer: ConvLayer) -> tuple[int, int]:
    c, kh, kw = layer.kernel.shape
    channels, height, width = fm.data.shape
    if channels != c:
        raise DimensionError(f"feature channels {channels} != kernel channels {c}")
    h_pad = height + 2 * layer.padding
    w_pad = width + 2 * layer.padding
    if kh > h_pad or kw > w_pad:
        raise ConfigError(
            f"kernel ({kh}, {kw}) larger than padded input ({h_pad}, {w_pad})"
        )
    return ((h_pad - kh) // layer.stride + 1, (w_pad - kw) // layer.stride + 1)


def _padded(fm: FeatureMap, layer: ConvLayer) -> np.ndarray:
    if not layer.padding:
        return fm.data
    pad = layer.padding
    return np.pad(fm.data, ((0, 0), (pad, pad), (pad, pad)))


def im2col(fm: FeatureMap, layer: ConvLayer) -> np.ndarray:
    """Patch matrix (p, M): column k is the zero-padded receptive field of
    output position k, rows in (channel, kernel row, kernel col) order."""
    h_out, w_out = output_shape(fm, layer)
    c, kh, kw = layer.kernel.shape
    # windows: (c, rows, cols, kh, kw); stride-subsample the spatial axes.
    windows = sliding_window_view(_padded(fm, layer), (kh, kw), axis=(1, 2))
    windows = windows[:, :: layer.stride, :: layer.stride]
    # -> (rows, cols, c, kh, kw) -> (M, p) -> (p, M)
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out, c * kh * kw)
    return np.ascontiguousarray(cols.T)


@functools.lru_cache
def _tap_planes(kh: int, kw: int, stride: int, shape: tuple[int, int]) -> tuple:
    """Per kernel tap (a, b), the index (a, b, rows, cols) into a
    (kh, kw, H, W) stack of tap planes that selects the input positions
    (s i + a, s j + b) tap (a, b) reads for every output position (i, j).
    Built once per geometry: every correlation and patch sum reuses it."""
    h_out, w_out = shape
    return tuple(
        (a, b, slice(a, a + stride * h_out, stride), slice(b, b + stride * w_out, stride))
        for a in range(kh)
        for b in range(kw)
    )


def _correlate(data: np.ndarray, kernel: np.ndarray, stride: int, shape) -> np.ndarray:
    """w^T x_k for every output position k, as an (h', w') map.

    One (kh kw, c) x (c, H W) product gives each tap's response over the
    whole padded map; output (i, j) sums tap (a, b)'s response at
    (s i + a, s j + b). Equals ``unroll_kernel(kernel) @ im2col(...)``.
    The cost grows with kh kw: a kernel near the map size is slower than
    lowering (a 15x15 kernel on an 18x18 map, see the module docstring).
    """
    c, kh, kw = kernel.shape
    _, h, w = data.shape
    taps = (kernel.reshape(c, kh * kw).T @ data.reshape(c, h * w)).reshape(kh, kw, h, w)
    out = np.zeros(shape)
    for index in _tap_planes(kh, kw, stride, shape):
        out += taps[index]
    return out


def _patch_sum(data: np.ndarray, kernel_shape, stride: int, v: np.ndarray) -> np.ndarray:
    """sum_k v_k x_k over output positions k, a length-p vector.

    Tap plane (a, b) of a zero (kh, kw, H, W) stack holds v_ij at
    (s i + a, s j + b); contracting the stack with the padded map over H W
    gives each tap's patch entries. Equals ``im2col(...) @ v.reshape(-1)``.
    The cost grows with kh kw as in ``_correlate``.
    """
    c, kh, kw = kernel_shape
    _, h, w = data.shape
    scatter = np.zeros((kh, kw, h, w))
    for index in _tap_planes(kh, kw, stride, v.shape):
        scatter[index] = v
    return (data.reshape(c, h * w) @ scatter.reshape(kh * kw, h * w).T).reshape(-1)


def conv_forward(fm: FeatureMap, layer: ConvLayer) -> np.ndarray:
    """Confidence map (h', w'): the kernel correlated with the padded map."""
    shape = output_shape(fm, layer)
    return _correlate(_padded(fm, layer), layer.kernel, layer.stride, shape)


@dataclass
class WeightedSample:
    """Feature map with its target confidence map and per-position weights."""

    features: FeatureMap
    target: np.ndarray  # (h', w')
    gamma: np.ndarray   # (h', w'), non-negative

    def __post_init__(self):
        self.target = as_array(self.target, "target", 2)
        self.gamma = as_array(self.gamma, "gamma", 2)
        if self.target.shape != self.gamma.shape:
            raise DimensionError(
                f"target shape {self.target.shape} != gamma shape {self.gamma.shape}"
            )
        if (self.gamma < 0).any():
            raise InputError("gamma weights must be non-negative")


def _check_sample(sample: WeightedSample, layer: ConvLayer) -> None:
    shape = output_shape(sample.features, layer)
    if sample.target.shape != shape:
        raise DimensionError(
            f"target shape {sample.target.shape} != conv output shape {shape}"
        )


def _padded_samples(samples: Sequence[WeightedSample], layer: ConvLayer):
    """Yield (gamma map, target map, padded feature data) per sample."""
    if not samples:
        raise InputError("no samples given")
    for sample in samples:
        _check_sample(sample, layer)
        yield sample.gamma, sample.target, _padded(sample.features, layer)


def conv_loss(samples: Sequence[WeightedSample], layer: ConvLayer, lambda_d: float = 0.0) -> float:
    """Weighted squared-error objective.

    sum_j sum_k gamma_jk (y_jk - w^T x_jk)^2 + (lambda_d / 2) ||W||^2.
    """
    if not 0.0 <= lambda_d < math.inf:
        raise ConfigError(f"weight decay must be non-negative and finite, got {lambda_d}")
    total = 0.0
    for gamma, target, data in _padded_samples(samples, layer):
        resid = target - _correlate(data, layer.kernel, layer.stride, target.shape)
        total += float(np.vdot(gamma, resid**2))
    return total + 0.5 * lambda_d * float(np.sum(layer.kernel**2))


def conv_gradient(
    samples: Sequence[WeightedSample], layer: ConvLayer, lambda_d: float = 0.0
) -> np.ndarray:
    """Exact kernel-shaped gradient of conv_loss."""
    if not 0.0 <= lambda_d < math.inf:
        raise ConfigError(f"weight decay must be non-negative and finite, got {lambda_d}")
    w_vec = unroll_kernel(layer.kernel)
    grad = np.zeros_like(w_vec)
    for gamma, target, data in _padded_samples(samples, layer):
        resid = _correlate(data, layer.kernel, layer.stride, target.shape) - target
        grad += _patch_sum(data, layer.kernel.shape, layer.stride, 2.0 * gamma * resid)
    grad += lambda_d * w_vec
    return roll_kernel(grad, layer.kernel.shape)


def conv_virtual_input(samples: Sequence[WeightedSample], layer: ConvLayer) -> np.ndarray:
    """Weighted virtual input over all columns of all samples:
    (1 / sqrt(N M)) sum_j sum_k sqrt(gamma_jk) x_jk, where N M is the total
    column count, so samples of mixed output sizes give an order-free result."""
    total = None
    n_cols = 0
    for gamma, _, data in _padded_samples(samples, layer):
        n_cols += gamma.size
        part = _patch_sum(data, layer.kernel.shape, layer.stride, np.sqrt(gamma))
        total = part if total is None else total + part
    return total / np.sqrt(n_cols)


def init_conv_state(
    layer: ConvLayer, delta: float = DEFAULT_CONV_DELTA, beta: float = 1.0
) -> RlsState:
    """Fresh precision state over the layer's patch dimension."""
    return init_state(RlsConfig(input_dim=layer.patch_dim, output_dim=1, beta=beta, delta=delta))


def conv_update_stage(
    layer: ConvLayer,
    samples: Sequence[WeightedSample],
    state: RlsState,
    config: GdConfig,
) -> tuple[ConvLayer, RlsState]:
    """Preconditioned update stage for the conv kernel.

    Advances the precision matrix once with the weighted virtual input,
    then runs the configured number of steps of
    f(W) <- f(W) - eta f(grad) P with the data gradient at each iterate;
    weight decay enters through the multiplicative factor W (I - eta lambda P).

    ``state`` is the plain precision state over the patch dimension
    (``init_conv_state``). It is advanced in place (``advance_precision``),
    so it must belong to the caller alone; it is returned with the new
    layer. The given layer is never written.
    """
    advance_precision(state, conv_virtual_input(samples, layer))
    shape = layer.kernel.shape
    for _ in range(config.iterations):
        grad = unroll_kernel(conv_gradient(samples, layer, config.weight_decay))
        step = (config.learning_rate * grad @ state.p_mat).reshape(shape)
        layer = ConvLayer(layer.kernel - step, layer.stride, layer.padding)
    return layer, state


@dataclass
class ConvSessionConfig:
    update_cfg: GdConfig
    update_period: int = 20
    sample_capacity: int = 50

    def __post_init__(self):
        self.update_period = checked_count(self.update_period, "update_period", 1)
        self.sample_capacity = checked_count(self.sample_capacity, "sample_capacity", 1)


@dataclass
class ConvSessionEvent:
    t: int
    sample: WeightedSample | None = None
    hard_negative: bool = False


def run_conv_session(
    layer: ConvLayer,
    state: RlsState,
    events: list[ConvSessionEvent],
    cfg: ConvSessionConfig,
) -> tuple[ConvLayer, list[tuple]]:
    """Session controller for the conv update stage.

    An event's sample, if it has one, enters a memory of the newest
    ``sample_capacity``; the update stage fires when
    (t - 1) mod update_period == 0 or on a hard negative. The audit log
    records ("insert", t), ("evict", t), ("hard_negative", t) and
    ("update", t) entries in order. The caller's
    layer and precision state are never written: the state is cloned once
    at entry, as ``run_session`` clones its bank, and the updates advance
    the clone in place.
    """
    audit: list[tuple] = []
    state = state.clone()
    memory: deque[tuple[int, WeightedSample]] = deque(maxlen=cfg.sample_capacity)
    last_t = None
    for event in events:
        if last_t is not None and event.t <= last_t:
            raise ProtocolError(f"event step {event.t} does not increase past {last_t}")
        last_t = event.t
        if event.sample is not None:
            evicted = memory[0][0] if len(memory) == memory.maxlen else None
            memory.append((event.t, event.sample))
            audit.append(("insert", event.t))
            if evicted is not None:
                audit.append(("evict", evicted))
        fire = (event.t - 1) % cfg.update_period == 0 or event.hard_negative
        if fire and memory:
            if event.hard_negative:
                audit.append(("hard_negative", event.t))
            audit.append(("update", event.t))
            samples = [sample for _, sample in memory]
            layer, state = conv_update_stage(layer, samples, state, cfg.update_cfg)
    return layer, audit
