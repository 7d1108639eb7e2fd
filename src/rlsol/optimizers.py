"""Update-stage optimizers.

Plain window batch / mini-batch gradient descent baselines, EMA
parameter combination, and the precision-preconditioned gradient descent
that retains memory of discarded data.

The update-stage contract, for every gradient stage here and in ``mlp``
and ``conv``: a stage checks the caller's arrays once, at entry, and then
iterates unchecked with numpy's overflow and invalid warnings off;
stepped weights that are not finite raise DivergenceError
(``linalg.stepped_weights``) carrying the iteration and, where the stage
has them, the layer and precision step.
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
    The iterations are ``bgd_steps``.
    """
    check_ridge(delta)
    w = _check_weights(w, window.y.shape[1], window.x.shape[1])
    w, rose_at = bgd_steps(w, window.x, window.y, config, delta)
    if rose_at >= 0:
        raise DivergenceError(int(rose_at))
    return stepped_weights(as_matrix, w, "bgd_update", config.iterations - 1)


def bgd_steps(w, x, y, config: GdConfig, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """``bgd_update``'s iterations, unchecked, on one window or on a stack:
    weights (S, q, p), each with its own rows x (S, r, p) and y (S, r, q).
    Returns the stepped weights and, per window, the iteration at which its
    cost had risen 3 times in a row, or -1; such a window's later
    iterations run on and mean nothing. Each window's products and
    per-window sums are those it takes alone, so a stack gives the same
    bits. The caller silences numpy's overflow warnings.
    """
    ridge = delta + config.weight_decay
    phi = x.mT @ x + ridge * np.eye(x.shape[-1])
    phi = (phi + phi.mT) / 2.0
    z = y.mT @ x

    def cost(w: np.ndarray) -> np.ndarray:
        resid = y - x @ w.mT
        return (resid**2).sum(axis=(-2, -1)) + ridge * (w**2).sum(axis=(-2, -1))

    cost_prev = cost(w)
    rising = np.zeros(cost_prev.shape, dtype=int)
    rose_at = np.full(cost_prev.shape, -1)
    for it in range(config.iterations):
        w = w - config.learning_rate * (w @ phi - z)
        cost_now = cost(w)
        rising = (rising + 1) * (cost_now > cost_prev)
        if (rising == 3).any():
            rose_at = np.where((rose_at < 0) & (rising == 3), it, rose_at)
        cost_prev = cost_now
    return w, rose_at


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
    The iterations are ``mbsgd_steps``.
    """
    w = _check_weights(w, window.y.shape[1], window.x.shape[1])
    batch_size = checked_count(batch_size, "batch_size", 1)
    w = mbsgd_steps(w[None], window.x[None], window.y[None], config, batch_size, [seed])[0]
    return stepped_weights(as_matrix, w, "mbsgd_update", config.iterations - 1)


def mbsgd_steps(w, x, y, config: GdConfig, batch_size: int, seeds: list[int]) -> np.ndarray:
    """``mbsgd_update``'s iterations, unchecked, on a stack of windows:
    weights (S, q, p), rows x (S, r, p) and y (S, r, q), and one seed per
    window, whose generator alone orders that window's rows. Every window
    takes the window-alone products, so it gets the same bits."""
    total = x.shape[-2]
    batch_size = min(batch_size, total)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    cursor = total  # draws the first order
    for _ in range(config.iterations):
        if cursor + batch_size > total:
            order = np.stack([rng.permutation(total) for rng in rngs])[..., None]
            cursor = 0
        idx = order[:, cursor : cursor + batch_size]
        cursor += batch_size
        bx, by = np.take_along_axis(x, idx, axis=-2), np.take_along_axis(y, idx, axis=-2)
        grad = (w @ bx.mT - by.mT) @ bx / batch_size
        w = w - config.learning_rate * (grad + config.weight_decay * w)
    return w


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


@np.errstate(over="ignore", invalid="ignore")
def precond_update_stage(
    w: np.ndarray, block: SampleBlock, state: RlsState, config: GdConfig
) -> tuple[np.ndarray, RlsState]:
    """Memory-retaining update stage for one data block.

    Advances the precision matrix exactly once with the block's virtual
    input (``update_precision``), then takes the preconditioned steps with
    the advanced state and the real block gradient (``precond_steps``).
    DivergenceError carries the advanced precision step.
    """
    w = _check_weights(w, state.config.output_dim, state.config.input_dim)
    _check_block(block, state.config)
    x_bar, _ = block_virtual_input(block)
    state = update_precision(state, x_bar)
    w = precond_steps(w, block.x, block.y, state.p_mat, config)
    w = stepped_weights(as_matrix, w, "precond_update_stage", config.iterations - 1, step=state.step)
    return w, state


def precond_steps(w, x, y, p_mat, config: GdConfig) -> np.ndarray:
    """``precond_update_stage``'s steps W <- W - eta (grad + lambda W) P, unchecked,
    on one block or on a stack: weights (S, q, p), block rows x (S, b, p)
    and y (S, b, q), and precision matrices (S, p, p). Weight decay enters
    through the multiplicative factor W (I - eta lambda P)."""
    for _ in range(config.iterations):
        grad = (w @ x.mT - y.mT) @ x / x.shape[-2]
        if config.weight_decay:
            grad = grad + config.weight_decay * w
        w = w - config.learning_rate * grad @ p_mat
    return w


def ema_combine(w_prev: np.ndarray, w_new: np.ndarray, config: EmaConfig) -> np.ndarray:
    """Convex combination (1 - alpha) w_prev + alpha w_new."""
    w_prev = as_matrix(w_prev, "previous weights")
    w_new = as_matrix(w_new, "new weights")
    if w_prev.shape != w_new.shape:
        raise DimensionError(f"shape mismatch {w_prev.shape} vs {w_new.shape}")
    return (1.0 - config.alpha) * w_prev + config.alpha * w_new
