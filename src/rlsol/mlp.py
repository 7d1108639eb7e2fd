"""Online-learned multi-layer perceptron with per-layer precision states.

Forward/backward for the squared-error and softmax/cross-entropy heads,
per-layer virtual inputs, the one-step preconditioned weight update, and
the session controller with regular / occasional updates and weight
backup-restore. ``forward`` and ``backward`` take one input ``(p,)`` or a
batch of rows ``(n, p)`` through the same code; batch gradients are means
over the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, DimensionError, InputError, ProtocolError
from .linalg import as_matrix, as_vector
from .optimizers import GdConfig
from .rls import RlsConfig, RlsState, SampleBlock, init_state, update_precision

SE_HEAD = "squared_error_identity"
CE_HEAD = "cross_entropy_softmax"
_HEADS = (SE_HEAD, CE_HEAD)
_ACTIVATIONS = ("identity", "relu", "leaky_relu")

# Per-layer regularizer default for the precision states.
DEFAULT_LAYER_DELTA = 5e-4


@dataclass
class Layer:
    weight: np.ndarray  # (q_l, p_l)
    activation: str = "identity"
    slope: float = 0.01  # leaky-ReLU slope

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

    def copy(self) -> "MlpModel":
        return MlpModel(
            [Layer(l.weight.copy(), l.activation, l.slope) for l in self.layers],
            self.head,
        )


def _act_deriv(layer: Layer, preact: np.ndarray) -> np.ndarray:
    if layer.activation == "identity":
        return np.ones_like(preact)
    if layer.activation == "relu":
        return (preact > 0).astype(np.float64)
    return np.where(preact > 0, 1.0, layer.slope)


def _act(layer: Layer, preact: np.ndarray) -> np.ndarray:
    # ReLU-family activations pass through the origin, so f(a) = f'(a) * a.
    return _act_deriv(layer, preact) * preact


@dataclass
class ForwardCache:
    # Each array keeps the input's rank: (width,) for one input, (n, width)
    # for a batch of rows.
    inputs: list[np.ndarray]   # u^l, input to each layer
    preacts: list[np.ndarray]  # a^l = W^l u^l
    output: np.ndarray         # head pre-activation z


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
    z = preacts[-1]  # final activation is identity
    return z, ForwardCache(inputs=inputs, preacts=preacts, output=z)


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


def backward(model: MlpModel, cache: ForwardCache, target: np.ndarray) -> list[np.ndarray]:
    """Per-layer weight gradients for the cached forward pass; for a batch,
    the mean over its rows."""
    grads: list[np.ndarray] = [None] * len(model.layers)
    # Gradient w.r.t. the pre-activation of the top layer.
    d = head_gradient(model, cache.output, target)
    for l in range(len(model.layers) - 1, -1, -1):
        u = cache.inputs[l]
        grads[l] = np.outer(d, u) if d.ndim == 1 else d.T @ u / d.shape[0]
        if l > 0:
            below = model.layers[l - 1]
            d = _act_deriv(below, cache.preacts[l - 1]) * (d @ model.layers[l].weight)
    return grads


def batch_backward(model: MlpModel, batch: SampleBlock) -> tuple[list[np.ndarray], ForwardCache]:
    """Mean gradients over a batch plus its forward cache for virtual inputs."""
    _, cache = forward(model, batch.x)
    return backward(model, cache, batch.y), cache


def layer_virtual_input(cache: ForwardCache, layer_index: int) -> np.ndarray:
    """Mean of a batch cache's layer inputs over its rows."""
    return cache.inputs[layer_index].mean(axis=0)


@dataclass
class LayerRlsBank:
    """One precision state per layer."""

    states: list[RlsState]

    def __post_init__(self):
        if not self.states:
            raise ConfigError("bank needs at least one state")

    def clone(self) -> "LayerRlsBank":
        return LayerRlsBank([s.clone() for s in self.states])


def init_bank(
    model: MlpModel, delta: float | list[float] = DEFAULT_LAYER_DELTA, beta: float = 1.0
) -> LayerRlsBank:
    deltas = [delta] * len(model.layers) if np.isscalar(delta) else list(delta)
    if len(deltas) != len(model.layers):
        raise ConfigError("one delta per layer required")
    states = []
    for layer, d in zip(model.layers, deltas):
        cfg = RlsConfig(
            input_dim=layer.weight.shape[1],
            output_dim=layer.weight.shape[0],
            beta=beta,
            delta=d,
        )
        states.append(init_state(cfg))
    return LayerRlsBank(states)


def _per_layer(value, n: int, name: str) -> list[float]:
    vals = [value] * n if np.isscalar(value) else list(value)
    if len(vals) != n:
        raise ConfigError(f"{name} must be a scalar or one value per layer")
    return [float(v) for v in vals]


def rls_update_layers(
    model: MlpModel,
    bank: LayerRlsBank,
    batch: SampleBlock,
    learning_rate: float | list[float],
    weight_decay: float | list[float] = 0.0,
) -> tuple[MlpModel, LayerRlsBank]:
    """One improved mini-batch iteration.

    For each layer: advance its precision matrix with the layer's virtual
    input, then apply W <- W - eta (grad + lambda W) P using the real
    mini-batch gradient. Exactly one weight step per call.
    """
    if len(bank.states) != len(model.layers):
        raise ConfigError("bank length must match layer count")
    n = len(model.layers)
    etas = _per_layer(learning_rate, n, "learning_rate")
    lambdas = _per_layer(weight_decay, n, "weight_decay")
    grads, cache = batch_backward(model, batch)
    new_layers, new_states = [], []
    for l, layer in enumerate(model.layers):
        x_bar = layer_virtual_input(cache, l)
        try:
            state = update_precision(bank.states[l], x_bar)
        except DegeneracyError as err:
            raise DegeneracyError(err.step, f"layer {l}: {err}", layer=l) from err
        grad = grads[l] + lambdas[l] * layer.weight
        w_new = layer.weight - etas[l] * grad @ state.p_mat
        new_layers.append(Layer(w_new, layer.activation, layer.slope))
        new_states.append(state)
    return MlpModel(new_layers, model.head), LayerRlsBank(new_states)


def plain_update_layers(
    model: MlpModel,
    batch: SampleBlock,
    config: GdConfig,
) -> MlpModel:
    """Plain (un-preconditioned) gradient steps over the batch."""
    current = model.copy()
    for _ in range(config.iterations):
        grads, _ = batch_backward(current, batch)
        layers = []
        for layer, grad in zip(current.layers, grads):
            step = grad + config.weight_decay * layer.weight
            layers.append(
                Layer(layer.weight - config.learning_rate * step, layer.activation, layer.slope)
            )
        current = MlpModel(layers, current.head)
    return current


@dataclass
class SessionConfig:
    regular_cfg: GdConfig
    occasional_cfg: GdConfig
    memory_capacity: int = 20
    regular_period: int = 10
    score_threshold: float = 0.0

    def __post_init__(self):
        if self.memory_capacity < 1:
            raise ConfigError("memory capacity must be positive")
        if self.regular_period < 1:
            raise ConfigError("regular period must be positive")


@dataclass
class SessionEvent:
    t: int
    score: float
    batch: SampleBlock | None = None


def run_session(
    model: MlpModel,
    bank: LayerRlsBank,
    events: list[SessionEvent],
    cfg: SessionConfig,
) -> tuple[MlpModel, list[tuple]]:
    """Session controller: bounded memory, score-triggered occasional plain
    updates with weight backup, and periodic regular preconditioned updates
    with restore.

    Returns the final model and an audit log with one entry per branch
    taken: ("append", t), ("evict", frame), ("backup", t),
    ("occasional", t), ("restore", t), ("regular", t).
    """
    audit: list[tuple] = []
    memory: dict[int, SampleBlock] = {}
    backup: MlpModel | None = None
    model = model.copy()
    bank = bank.clone()
    last_t = None
    for event in events:
        if last_t is not None and event.t <= last_t:
            raise ProtocolError(
                f"event step {event.t} does not increase past {last_t}"
            )
        last_t = event.t
        if event.score > cfg.score_threshold:
            if event.batch is not None:
                memory[event.t] = event.batch
                audit.append(("append", event.t))
                if len(memory) > cfg.memory_capacity:
                    oldest = min(memory)
                    del memory[oldest]
                    audit.append(("evict", oldest))
        if event.score <= cfg.score_threshold:
            if backup is None:
                backup = model.copy()
                audit.append(("backup", event.t))
            audit.append(("occasional", event.t))
            if memory:
                # The regularly updated model is held fixed: precision
                # states are not touched here.
                model = plain_update_layers(model, _pool(memory), cfg.occasional_cfg)
        elif event.t % cfg.regular_period == 0:
            if backup is not None:
                model = backup
                backup = None
                audit.append(("restore", event.t))
            audit.append(("regular", event.t))
            if memory:
                pooled = _pool(memory)
                for _ in range(cfg.regular_cfg.iterations):
                    model, bank = rls_update_layers(
                        model,
                        bank,
                        pooled,
                        cfg.regular_cfg.learning_rate,
                        cfg.regular_cfg.weight_decay,
                    )
    return model, audit


def _pool(memory: dict[int, SampleBlock]) -> SampleBlock:
    blocks = [memory[t] for t in sorted(memory)]
    return SampleBlock(
        x=np.vstack([b.x for b in blocks]),
        y=np.vstack([b.y for b in blocks]),
    )


def write_session_events(path, events: list[SessionEvent]) -> None:
    """One JSON record per line: step, score, optional inline samples."""
    with open(path, "w") as fh:
        for ev in events:
            record = {"t": ev.t, "score": ev.score}
            if ev.batch is not None:
                record["x"] = ev.batch.x.tolist()
                record["y"] = ev.batch.y.tolist()
            fh.write(json.dumps(record) + "\n")


def read_session_events(path) -> list[SessionEvent]:
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                batch = None
                if "x" in record:
                    batch = SampleBlock(x=np.array(record["x"]), y=np.array(record["y"]))
                events.append(SessionEvent(t=int(record["t"]), score=float(record["score"]), batch=batch))
            except KeyError as err:
                raise InputError(f"{path}:{lineno}: event record lacks key {err}") from err
            except (TypeError, ValueError) as err:
                raise InputError(f"{path}:{lineno}: bad event record: {err}") from err
    return events
