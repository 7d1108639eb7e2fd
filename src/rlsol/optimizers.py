"""Update-stage optimizers.

Plain window batch / mini-batch gradient descent baselines, EMA
parameter combination, and the precision-preconditioned gradient descent
that retains memory of discarded data.

The update-stage contract, for every gradient stage here and in ``mlp``
and ``conv``: the caller's arrays are checked once, at entry
(``precond_apply`` leaves that to its caller); the iterations run
unchecked, with numpy's overflow and invalid warnings off; stepped weights
that are not finite raise DivergenceError (``linalg.stepped_weights``) carrying
the iteration and, where the stage has them, the layer and precision step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError
from .linalg import as_matrix, stepped_weights
from .rls import (
    RlsState,
    SampleBlock,
    _check_block,
    _check_weights,
    block_virtual_input,
    checked_count,
    update_precision,
)


@dataclass
class GdConfig:
    learning_rate: float
    iterations: int = 5
    weight_decay: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        self.iterations = checked_count(self.iterations, "iterations", 1)
        check_weight_decay(self.weight_decay)


def check_weight_decay(value: float) -> None:
    """ConfigError unless ``value`` is non-negative and finite (NaN fails)."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"weight decay must be non-negative and finite, got {value}")


@dataclass
class EmaConfig:
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"EMA coefficient must lie in [0, 1], got {self.alpha}")


def check_ridge(value: float) -> None:
    """ConfigError unless the window ridge ``value`` is positive and finite
    (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"regularizer must be positive and finite, got {value}")


def _window_weights(w, window: SampleBlock) -> np.ndarray:
    """The caller's weights as a matrix; DimensionError unless they are
    (q, p) of the window's rows."""
    w = as_matrix(w, "weights")
    q, p = window.y.shape[1], window.x.shape[1]
    if w.shape != (q, p):
        raise DimensionError(f"weights shape {w.shape} != the window's ({q}, {p})")
    return w


@np.errstate(over="ignore", invalid="ignore")
def bgd_update(w: np.ndarray, window: SampleBlock, config: GdConfig, delta: float) -> np.ndarray:
    """Batch gradient descent over the window's rows X, Y, given as one
    ``SampleBlock`` of any number of rows and read unweighted.

    Iterates W <- W - eta (W Phi - Z) from the provided weights, with
    Phi = X^T X + (delta + lambda) I, Z = Y^T X, lambda the weight decay and
    the ridge delta positive and finite (``check_ridge``). Raises
    DivergenceError if the cost ||Y - X W^T||^2 + (delta + lambda) ||W||^2
    rises for 3 consecutive iterations, or if the weights it returns are not
    finite. The expanded cost tr(W Phi W^T) - 2 <W, Z> + ||Y||^2 is not
    used: near an exact fit its cancellation noise reads as a rising cost.
    """
    check_ridge(delta)
    w = _window_weights(w, window)
    x_all, y_all = window.x, window.y
    ridge = delta + config.weight_decay
    phi = x_all.T @ x_all + ridge * np.eye(x_all.shape[1])
    phi = (phi + phi.T) / 2.0
    z = y_all.T @ x_all

    def cost(w: np.ndarray) -> float:
        resid = y_all - x_all @ w.T
        return float((resid**2).sum() + ridge * (w**2).sum())

    cost_prev = cost(w)
    rising = 0
    for it in range(config.iterations):
        w = w - config.learning_rate * (w @ phi - z)
        cost_now = cost(w)
        rising = rising + 1 if cost_now > cost_prev else 0
        if rising >= 3:
            raise DivergenceError(it)
        cost_prev = cost_now
    return stepped_weights(as_matrix, w, "bgd_update", it)


@np.errstate(over="ignore", invalid="ignore")
def mbsgd_update(
    w: np.ndarray,
    window: SampleBlock,
    config: GdConfig,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Mini-batch SGD over the window's rows, given as one ``SampleBlock``,
    deterministic given the seed.

    Each iteration steps W <- W - eta (grad + lambda W) with the data
    gradient averaged over the current mini-batch of
    min(batch_size, rows) rows; samples are reshuffled once per epoch.
    """
    w = _window_weights(w, window)
    px, py = window.x, window.y
    total = px.shape[0]
    batch_size = min(checked_count(batch_size, "batch_size", 1), total)
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    cursor = 0
    for it in range(config.iterations):
        if cursor + batch_size > total:
            order = rng.permutation(total)
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        bx, by = px[idx], py[idx]
        grad = (w @ bx.T - by.T) @ bx / batch_size
        w = w - config.learning_rate * (grad + config.weight_decay * w)
    return stepped_weights(as_matrix, w, "mbsgd_update", it)


def precond_gd_iterate(
    w: np.ndarray, grad: np.ndarray, p_mat: np.ndarray, eta: float
) -> np.ndarray:
    """One preconditioned step W <- W - eta grad P."""
    w = as_matrix(w, "weights")
    grad = as_matrix(grad, "gradient")
    p_mat = as_matrix(p_mat, "preconditioner")
    if grad.shape != w.shape:
        raise DimensionError(f"gradient shape {grad.shape} != weights shape {w.shape}")
    if p_mat.shape != (w.shape[1], w.shape[1]):
        raise DimensionError(
            f"preconditioner shape {p_mat.shape} incompatible with weights {w.shape}"
        )
    return w - eta * grad @ p_mat


def precond_update_stage(
    w: np.ndarray, block: SampleBlock, state: RlsState, config: GdConfig
) -> tuple[np.ndarray, RlsState]:
    """Memory-retaining update stage for one data block.

    Advances the precision matrix exactly once with the block's virtual
    input (``update_precision``), then takes the preconditioned steps with
    the advanced state (``precond_apply``).
    """
    w = _check_weights(w, state.config)
    _check_block(block, state.config)
    x_bar, _ = block_virtual_input(block)
    state = update_precision(state, x_bar)
    return precond_apply(w, block, state, config), state


@np.errstate(over="ignore", invalid="ignore")
def precond_apply(
    w: np.ndarray, block: SampleBlock, state: RlsState, config: GdConfig
) -> np.ndarray:
    """The weight half of ``precond_update_stage``, with a state already
    advanced by the block's virtual input.

    Runs the configured number of preconditioned steps using the real block
    gradient at each iterate. Weight decay enters through the multiplicative
    factor W (I - eta lambda P). The arguments are not checked at entry
    (``precond_update_stage`` does that); the returned weights are checked
    once, and DivergenceError carries the state's precision step.
    """
    bx, by = block.x, block.y
    for it in range(config.iterations):
        grad = (w @ bx.T - by.T) @ bx / block.size
        if config.weight_decay:
            grad = grad + config.weight_decay * w
        w = w - config.learning_rate * grad @ state.p_mat
    return stepped_weights(as_matrix, w, "precond_apply", it, step=state.step)


def ema_combine(w_prev: np.ndarray, w_new: np.ndarray, config: EmaConfig) -> np.ndarray:
    """Convex combination (1 - alpha) w_prev + alpha w_new."""
    w_prev = as_matrix(w_prev, "previous weights")
    w_new = as_matrix(w_new, "new weights")
    if w_prev.shape != w_new.shape:
        raise DimensionError(f"shape mismatch {w_prev.shape} vs {w_new.shape}")
    return (1.0 - config.alpha) * w_prev + config.alpha * w_new
