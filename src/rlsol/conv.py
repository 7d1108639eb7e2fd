"""Online-learned single-output-channel convolutional layer.

Evaluates the weighted squared-error objective, its gradient and the
weighted virtual input straight from the zero-padded feature map, and runs
the preconditioned update stage over a sequence of weighted samples; the
session keeps the bounded sample memory. A sample's weight is a scale on
its gamma map.

Output position k = (i, j) reads input (s i + a, s j + b) at kernel tap
(a, b). A (kh kw, H W) stack holds one plane per tap over the padded
(c, H, W) map, and its strided (kh, kw, h', w') tap view (``_tap_view``)
has plane (a, b) at (s i + a, s j + b) as entry (a, b, i, j). So both
contractions the update needs are one small GEMM plus one pass through a
tap view:

- forward, w^T x_k for every k: one (kh kw, c) x (c, H W) product fills
  the stack with each tap's response, then the view is summed over taps;
- patch sum, sum_k v_k x_k: write v through the view of a zero stack,
  then contract the stack with the map over H W.

Each call builds the stacks and views once per padded input size
(``_TapWork``) and shares them with no other call. These equal the lowered
products w^T X and X v over the im2col patch matrix X (p, M) (Chellapilla
et al. 2006), which ``im2col`` keeps as the reference, without building X.
Their cost grows with kh kw relative to the output positions. Measured for
``conv_gradient`` on one 64-channel 18x18 map (one call per map, so the
stacks are built each time; one core, OpenBLAS, one thread), tap view
against lowered: 4x4 kernel 0.07-0.10 ms against 2.3-3.3 ms, 8x8
0.16-0.26 ms against 4.7-6.2 ms, 15x15 0.46-0.76 ms against 0.52-0.82 ms.
The crossover lies at about 15x15: there the two are level within the
noise, and at 16x16 and 17x17 lowering is faster.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConfigError, DimensionError, InputError, ProtocolError
from .linalg import as_array, stepped_weights
from .optimizers import GdConfig, check_weight_decay
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


def _tap_view(planes: np.ndarray, stride: int, shape: tuple[int, int]) -> np.ndarray:
    """(kh, kw, h', w') view of a C-contiguous (kh, kw, H, W) stack of tap
    planes: entry (a, b, i, j) is plane (a, b) at input position
    (s i + a, s j + b), the input tap (a, b) reads for output (i, j).

    Entry (a, b, i, j) lies a (kw H W + W) + b (H W + 1) + i s W + j s
    elements in; as s i + a < H and s j + b < W, no two entries share
    memory, so the view can be written.
    """
    kh, kw, h, w = planes.shape
    steps = (kw * h * w + w, h * w + 1, stride * w, stride)
    return as_strided(planes, (kh, kw) + shape, tuple(planes.itemsize * n for n in steps))


class _TapWork:
    """Both tap contractions for one padded input size (c, H, W).

    A (kh kw, H W) response stack and a zero scatter stack, with their tap
    views, built once; every map of that size in one call reuses them. The
    scatter view's entries are the only ones ever written, so the rest of
    the scatter stack stays zero and is never cleared.
    """

    def __init__(self, layer: ConvLayer, size: tuple[int, int, int], shape: tuple[int, int]):
        _, kh, kw = layer.kernel.shape
        self.responses = np.empty((kh * kw, size[1] * size[2]))
        self.scatter = np.zeros_like(self.responses)
        planes = (kh, kw) + size[1:]
        self.response_view = _tap_view(self.responses.reshape(planes), layer.stride, shape)
        self.scatter_view = _tap_view(self.scatter.reshape(planes), layer.stride, shape)

    def correlate(self, kernel: np.ndarray, data: np.ndarray) -> np.ndarray:
        """w^T x_k for every output position k, as an (h', w') map: one
        (kh kw, c) x (c, H W) product gives each tap's response over the
        whole map, and output (i, j) sums tap (a, b)'s response at
        (s i + a, s j + b), taps in (a, b) order. Equals
        ``kernel.reshape(-1) @ im2col(...)``."""
        kernel_t = kernel.reshape(len(kernel), -1).T
        np.matmul(kernel_t, data.reshape(len(data), -1), out=self.responses)
        return self.response_view.sum(axis=(0, 1))

    def patch_sum(self, data: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_k v_k x_k over output positions k, a length-p vector: tap
        plane (a, b) holds v_ij at (s i + a, s j + b), and contracting the
        stack with the map over H W gives each tap's patch entries. Equals
        ``im2col(...) @ v.reshape(-1)``."""
        self.scatter_view[...] = v
        return (data.reshape(len(data), -1) @ self.scatter.T).reshape(-1)


def conv_forward(fm: FeatureMap, layer: ConvLayer) -> np.ndarray:
    """Confidence map (h', w'): the kernel correlated with the padded map."""
    shape = output_shape(fm, layer)
    data = _padded(fm, layer)
    return _TapWork(layer, data.shape, shape).correlate(layer.kernel, data)


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
    """Yield (gamma map, target map, padded feature data, tap work) per
    sample; the samples of one padded input size share one ``_TapWork``."""
    if not samples:
        raise InputError("no samples given")
    works: dict[tuple, _TapWork] = {}
    for sample in samples:
        _check_sample(sample, layer)
        data = _padded(sample.features, layer)
        work = works.get(data.shape)
        if work is None:
            work = works[data.shape] = _TapWork(layer, data.shape, sample.target.shape)
        yield sample.gamma, sample.target, data, work


def conv_loss(samples: Sequence[WeightedSample], layer: ConvLayer, lambda_d: float = 0.0) -> float:
    """Weighted squared-error objective.

    sum_j sum_k gamma_jk (y_jk - w^T x_jk)^2 + (lambda_d / 2) ||W||^2.
    """
    check_weight_decay(lambda_d)
    total = 0.0
    for gamma, target, data, work in _padded_samples(samples, layer):
        resid = target - work.correlate(layer.kernel, data)
        total += float(np.vdot(gamma, resid**2))
    return total + 0.5 * lambda_d * float(np.sum(layer.kernel**2))


def conv_gradient(
    samples: Sequence[WeightedSample], layer: ConvLayer, lambda_d: float = 0.0
) -> np.ndarray:
    """Exact kernel-shaped gradient of conv_loss."""
    check_weight_decay(lambda_d)
    return _gradient(_padded_samples(samples, layer), layer.kernel, lambda_d)


def _gradient(padded, kernel: np.ndarray, lambda_d: float) -> np.ndarray:
    """``conv_gradient`` over ``_padded_samples``' entries, already checked."""
    grad = np.zeros(kernel.size)
    for gamma, target, data, work in padded:
        resid = work.correlate(kernel, data) - target
        grad += work.patch_sum(data, 2.0 * gamma * resid)
    grad += lambda_d * kernel.reshape(-1)
    return grad.reshape(kernel.shape)


def conv_virtual_input(samples: Sequence[WeightedSample], layer: ConvLayer) -> np.ndarray:
    """Weighted virtual input over all columns of all samples:
    (1 / sqrt(N M)) sum_j sum_k sqrt(gamma_jk) x_jk, where N M is the total
    column count, so samples of mixed output sizes give an order-free result."""
    return _virtual_input(_padded_samples(samples, layer))


def _virtual_input(padded) -> np.ndarray:
    """``conv_virtual_input`` over ``_padded_samples``' entries, already checked."""
    total = None
    n_cols = 0
    for gamma, _, data, work in padded:
        n_cols += gamma.size
        part = work.patch_sum(data, np.sqrt(gamma))
        total = part if total is None else total + part
    return total / np.sqrt(n_cols)


def init_conv_state(
    layer: ConvLayer, delta: float = DEFAULT_CONV_DELTA, beta: float = 1.0
) -> RlsState:
    """Fresh precision state over the layer's patch dimension."""
    return init_state(RlsConfig(input_dim=layer.patch_dim, output_dim=1, beta=beta, delta=delta))


@np.errstate(over="ignore", invalid="ignore")
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
    layer. The given layer is never written. It keeps the update-stage
    contract of ``rlsol.optimizers``: a kernel that is not finite after an
    iteration raises DivergenceError carrying the iteration and the
    precision step. The samples are checked and padded once, at entry, so
    the call holds every padded map at once (none when ``padding`` is 0).
    """
    padded = list(_padded_samples(samples, layer))
    advance_precision(state, _virtual_input(padded))
    shape = layer.kernel.shape
    make = functools.partial(ConvLayer, stride=layer.stride, padding=layer.padding)
    for it in range(config.iterations):
        grad = _gradient(padded, layer.kernel, config.weight_decay)
        step = (config.learning_rate * grad.reshape(-1) @ state.p_mat).reshape(shape)
        layer = stepped_weights(make, layer.kernel - step, "conv_update_stage", it, step=state.step)
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
