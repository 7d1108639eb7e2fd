"""Online-learned multi-layer perceptron with per-layer precision states.

Forward/backward for the squared-error and softmax/cross-entropy heads,
per-layer virtual inputs, the preconditioned weight update, and
the session controller with regular / occasional updates and weight
backup-restore. ``forward`` and ``backward`` take one input ``(p,)`` or a
batch of rows ``(n, p)`` through the same code; batch gradients are means
over the rows.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, DimensionError, InputError, ProtocolError
from .linalg import as_matrix, as_vector
from .optimizers import GdConfig, SlidingWindow, stepped_weights
from .rls import RlsConfig, RlsState, SampleBlock, advance_precision, checked_count, init_state

SE_HEAD = "squared_error_identity"
CE_HEAD = "cross_entropy_softmax"
_HEADS = (SE_HEAD, CE_HEAD)
_ACTIVATIONS = ("identity", "relu", "leaky_relu")

# Per-layer regularizer default for the precision states.
DEFAULT_LAYER_DELTA = 5e-4
# Slope of the leaky ReLU below zero.
_LEAKY_SLOPE = 0.01


@dataclass
class Layer:
    weight: np.ndarray  # (q_l, p_l)
    activation: str = "identity"

    def __post_init__(self):
        self.weight = as_matrix(self.weight, "layer weight")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass
class MlpModel:
    layers: list[Layer]
    head: str = SE_HEAD

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("model needs at least one layer")
        if self.head not in _HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        for lower, upper in zip(self.layers, self.layers[1:]):
            if lower.weight.shape[0] != upper.weight.shape[1]:
                raise DimensionError(
                    f"layer output {lower.weight.shape[0]} != next input "
                    f"{upper.weight.shape[1]}"
                )
        if self.layers[-1].activation != "identity":
            raise ConfigError("final layer activation must be identity; the head supplies the output nonlinearity")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def _act_deriv(layer: Layer, preact: np.ndarray) -> np.ndarray:
    if layer.activation == "identity":
        return np.ones_like(preact)
    if layer.activation == "relu":
        return (preact > 0).astype(np.float64)
    return np.where(preact > 0, 1.0, _LEAKY_SLOPE)


def _act(layer: Layer, preact: np.ndarray) -> np.ndarray:
    # ReLU-family activations pass through the origin, so f(a) = f'(a) * a.
    return _act_deriv(layer, preact) * preact


@dataclass
class ForwardCache:
    # Each array keeps the input's rank: (width,) for one input, (n, width)
    # for a batch of rows.
    inputs: list[np.ndarray]   # u^l, input to each layer
    preacts: list[np.ndarray]  # a^l = W^l u^l; the last is the head pre-activation z


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Head pre-activation and the per-layer input cache."""
    u = as_vector(x, "input").reshape(np.shape(x))
    if u.ndim not in (1, 2) or u.shape[-1] != model.input_dim:
        raise DimensionError(f"input shape {u.shape} != model input {model.input_dim}")
    inputs, preacts = [], []
    for layer in model.layers:
        inputs.append(u)
        a = u @ layer.weight.T
        preacts.append(a)
        u = _act(layer, a)
    # the final activation is identity, so z is the last pre-activation
    return preacts[-1], ForwardCache(inputs=inputs, preacts=preacts)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = np.exp(z - z.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def head_output(model: MlpModel, z: np.ndarray) -> np.ndarray:
    return softmax(z) if model.head == CE_HEAD else z


def _checked_target(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The target, finite and of the output's shape, or DimensionError."""
    y = as_vector(target, "target").reshape(np.shape(target))
    if y.shape != np.shape(z):
        raise DimensionError(f"target shape {y.shape} != output shape {np.shape(z)}")
    return y


def head_gradient(model: MlpModel, z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Loss gradient at the head pre-activation: u - y for both heads."""
    return head_output(model, z) - _checked_target(z, target)


def sample_loss(model: MlpModel, x: np.ndarray, target: np.ndarray) -> float:
    z, _ = forward(model, np.ravel(x))
    y = _checked_target(z, target)
    if model.head == CE_HEAD:
        logp = z - np.log(np.sum(np.exp(z - z.max()))) - z.max()
        return float(-(y @ logp))
    return float(0.5 * np.sum((z - y) ** 2))


def _deltas(model: MlpModel, cache: ForwardCache, target: np.ndarray) -> list[np.ndarray]:
    """Per-layer loss gradients at the pre-activations a^l for the cached
    forward pass, one row per batch row."""
    deltas: list[np.ndarray] = [None] * len(model.layers)
    # Gradient w.r.t. the pre-activation of the top layer.
    d = head_gradient(model, cache.preacts[-1], target)
    for l in range(len(model.layers) - 1, -1, -1):
        deltas[l] = d
        if l > 0:
            below = model.layers[l - 1]
            d = _act_deriv(below, cache.preacts[l - 1]) * (d @ model.layers[l].weight)
    return deltas


def backward(model: MlpModel, cache: ForwardCache, target: np.ndarray) -> list[np.ndarray]:
    """Per-layer weight gradients for the cached forward pass; for a batch,
    the mean over its rows."""
    grads = []
    for d, u in zip(_deltas(model, cache, target), cache.inputs):
        # one input is a batch of one row: (q, 1) @ (1, p) is np.outer's bits
        d, u = np.atleast_2d(d), np.atleast_2d(u)
        # divided in place: `d.T @ u / n` allocates a second (q, p) array,
        # 2 MiB of fresh pages at 512 x 512 (see rls_update_layers)
        g = d.T @ u
        g /= d.shape[0]
        grads.append(g)
    return grads


def batch_backward(model: MlpModel, batch: SampleBlock) -> tuple[list[np.ndarray], ForwardCache]:
    """Mean gradients over a batch plus its forward cache for virtual inputs."""
    _, cache = forward(model, batch.x)
    return backward(model, cache, batch.y), cache


def layer_virtual_input(cache: ForwardCache, layer_index: int) -> np.ndarray:
    """Mean of a batch cache's layer inputs over its rows."""
    return cache.inputs[layer_index].mean(axis=0)


def init_bank(
    model: MlpModel, delta: float = DEFAULT_LAYER_DELTA, beta: float = 1.0
) -> list[RlsState]:
    """One fresh precision state per layer, over that layer's input."""
    return [
        init_state(RlsConfig(layer.weight.shape[1], layer.weight.shape[0], beta=beta, delta=delta))
        for layer in model.layers
    ]


@np.errstate(over="ignore", invalid="ignore")
def rls_update_layers(
    model: MlpModel,
    bank: list[RlsState],
    batch: SampleBlock,
    config: GdConfig,
) -> tuple[MlpModel, list[RlsState]]:
    """``config.iterations`` improved mini-batch iterations.

    Each iteration, for each layer: advance its precision matrix with the
    layer's virtual input, then apply W <- W - eta (grad + lambda W) P using
    the real mini-batch gradient. The bank's states are advanced in place
    (``advance_precision``), so the bank must belong to the caller alone;
    it is returned with the new model. A state whose dimension is not its
    layer's input raises DimensionError before any state advances; after
    any later error the states may be partly advanced. The given model is
    never written. It keeps the update-stage contract of
    ``rlsol.optimizers``: a layer whose new weights are not finite raises
    DivergenceError carrying that layer, the iteration and the layer's
    precision step.

    The data gradient of a batch of n rows is D^T U / n (D the (n, q)
    pre-activation gradients, U the (n, p) layer inputs), so the step is
    computed in the cheaper association order. With lambda = 0 and n < q
    it is D^T (U P) / n: 2 n p^2 + 2 q n p flops, against 2 q n p + 2 q p^2
    for (D^T U / n + lambda W) P, the form every other layer takes. At
    n = 80 and q = p = 512 that is 84 MFLOP instead of 268.
    """
    if len(bank) != len(model.layers):
        raise ConfigError("bank length must match layer count")
    # checked before any state advances, so a mismatch leaves the bank as given
    for l, (layer, state) in enumerate(zip(model.layers, bank)):
        if state.config.input_dim != layer.weight.shape[1]:
            raise DimensionError(
                f"layer {l}: precision dimension {state.config.input_dim} != "
                f"layer input {layer.weight.shape[1]}"
            )
    eta, lam = config.learning_rate, config.weight_decay
    rows = batch.size
    for it in range(config.iterations):
        _, cache = forward(model, batch.x)
        deltas = _deltas(model, cache, batch.y)
        new_layers = []
        for l, (layer, state) in enumerate(zip(model.layers, bank)):
            try:
                advance_precision(state, layer_virtual_input(cache, l))
            except DegeneracyError as err:
                raise DegeneracyError(err.step, f"layer {l}: {err}", layer=l) from err
            d, u = deltas[l], cache.inputs[l]
            # Each step is computed in the array that becomes the new
            # weights. A weight-sized temporary at 512 x 512 is 2 MiB (512
            # pages), and such allocations often come back as fresh pages
            # that fault in on first write: on the 512-512(relu)-2 benchmark
            # session (200 events) chained expressions took 10 816 minor
            # faults per run_session call, these in-place steps 3 239. The
            # operands and their order are those of the expressions, so the
            # bits are the same.
            if lam == 0.0 and rows < layer.weight.shape[0]:
                step = d.T @ (u @ state.p_mat)
                step /= rows
            else:
                grad = d.T @ u
                grad /= rows
                if lam:
                    grad += lam * layer.weight
                step = grad @ state.p_mat
            step *= eta
            make = functools.partial(Layer, activation=layer.activation)
            w = np.subtract(layer.weight, step, out=step)
            new_layers.append(stepped_weights(make, w, f"layer {l}", it, layer=l, step=state.step))
        model = MlpModel(new_layers, model.head)
    return model, bank


@np.errstate(over="ignore", invalid="ignore")
def plain_update_layers(
    model: MlpModel,
    batch: SampleBlock,
    config: GdConfig,
) -> MlpModel:
    """Plain (un-preconditioned) gradient steps over the batch; each step
    builds new layers, so the caller's model is never written. It keeps the
    update-stage contract of ``rlsol.optimizers``: a layer whose new weights
    are not finite raises DivergenceError carrying that layer and the
    iteration."""
    current = model
    for it in range(config.iterations):
        grads, _ = batch_backward(current, batch)
        layers = []
        for l, (layer, grad) in enumerate(zip(current.layers, grads)):
            # `grad` is backward's fresh array: the step is computed in it
            # and it becomes the new weights, with no 2 MiB temporaries
            # (see rls_update_layers)
            if config.weight_decay:
                grad += config.weight_decay * layer.weight
            grad *= config.learning_rate
            make = functools.partial(Layer, activation=layer.activation)
            w = np.subtract(layer.weight, grad, out=grad)
            layers.append(stepped_weights(make, w, f"layer {l}", it, layer=l))
        current = MlpModel(layers, current.head)
    return current


@dataclass
class SessionConfig:
    regular_cfg: GdConfig
    occasional_cfg: GdConfig
    memory_capacity: int = 20
    regular_period: int = 10

    def __post_init__(self):
        self.memory_capacity = checked_count(self.memory_capacity, "memory_capacity", 1)
        self.regular_period = checked_count(self.regular_period, "regular_period", 1)


@dataclass
class SessionEvent:
    t: int
    score: float
    batch: SampleBlock | None = None


def run_session(
    model: MlpModel,
    bank: list[RlsState],
    events: list[SessionEvent],
    cfg: SessionConfig,
) -> tuple[MlpModel, list[tuple]]:
    """Session controller: bounded memory, score-triggered occasional plain
    updates with weight backup, and periodic regular preconditioned updates
    with restore. A positive score is a success: the event's batch, if any,
    enters memory. A score at or below zero takes the occasional branch.

    Returns the final model and an audit log with one entry per branch
    taken: ("append", t), ("evict", frame), ("backup", t),
    ("occasional", t), ("restore", t), ("regular", t). The caller's model
    and bank are never written: every update builds new layers, and the
    bank is cloned once at entry and the regular updates advance the clone
    in place. With no update the caller's model is returned. A NaN score,
    which would take neither branch, raises InputError naming its step.
    """
    audit: list[tuple] = []
    bank = [state.clone() for state in bank]
    memory = SlidingWindow(cfg.memory_capacity)
    stored: deque[int] = deque()  # the steps of the batches in memory, oldest first
    backup: MlpModel | None = None
    last_t = None
    for event in events:
        if last_t is not None and event.t <= last_t:
            raise ProtocolError(
                f"event step {event.t} does not increase past {last_t}"
            )
        last_t = event.t
        if math.isnan(event.score):
            raise InputError(f"event step {event.t}: score is nan")
        if event.score > 0.0:
            if event.batch is not None:
                memory.push(event.batch)
                stored.append(event.t)
                audit.append(("append", event.t))
                if len(stored) > cfg.memory_capacity:
                    audit.append(("evict", stored.popleft()))
        if event.score <= 0.0:
            if backup is None:
                backup = model  # updates build new layers, never write these
                audit.append(("backup", event.t))
            audit.append(("occasional", event.t))
            if memory:
                # The regularly updated model is held fixed: precision
                # states are not touched here.
                model = plain_update_layers(
                    model, SampleBlock(*memory.stacked()), cfg.occasional_cfg
                )
        elif event.t % cfg.regular_period == 0:
            if backup is not None:
                model = backup
                backup = None
                audit.append(("restore", event.t))
            audit.append(("regular", event.t))
            if memory:
                model, _ = rls_update_layers(
                    model, bank, SampleBlock(*memory.stacked()), cfg.regular_cfg
                )
    return model, audit
