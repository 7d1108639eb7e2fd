"""Update-stage optimizers.

Plain sliding-window batch / mini-batch gradient descent baselines, EMA
parameter combination, and the precision-preconditioned gradient descent
that retains memory of discarded data.

The update-stage contract, for every gradient stage here and in ``mlp``
and ``conv``: the caller's arrays are checked once, at entry
(``precond_apply`` leaves that to its caller); the iterations run
unchecked, with numpy's overflow and invalid warnings off; stepped weights
that are not finite raise DivergenceError (``stepped_weights``) carrying
the iteration and, where the stage has them, the layer and precision step.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, InputError
from .linalg import as_matrix
from .rls import (
    RlsConfig,
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
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight decay must be non-negative and finite, got {self.weight_decay}"
            )


@dataclass
class EmaConfig:
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"EMA coefficient must lie in [0, 1], got {self.alpha}")


@dataclass
class SlidingWindow:
    """Fixed-capacity block store, oldest first; pushing beyond capacity
    evicts the oldest block.

    ``push`` checks a block once: its input and output widths must match
    the blocks already held, or it raises DimensionError. ``stacked``
    gives every block's rows stacked oldest first, with the block size they
    share; they are stacked at most once per push, on the first read after
    it. A block must not be changed while the window holds it.
    """

    capacity: int

    def __post_init__(self):
        self.capacity = checked_count(self.capacity, "capacity", 1)
        self.blocks: deque[SampleBlock] = deque(maxlen=self.capacity)
        self._stacked = None

    def push(self, block: SampleBlock) -> None:
        if self.blocks:
            held = self.blocks[-1]
            if block.x.shape[1] != held.x.shape[1] or block.y.shape[1] != held.y.shape[1]:
                raise DimensionError(
                    f"block widths ({block.x.shape[1]}, {block.y.shape[1]}) != the "
                    f"window's ({held.x.shape[1]}, {held.y.shape[1]})"
                )
        self.blocks.append(block)
        self._stacked = None

    def __len__(self) -> int:
        return len(self.blocks)

    def stacked(self) -> tuple[np.ndarray, np.ndarray, int | None]:
        """Input rows (N, p) and target rows (N, q) of all blocks, oldest
        first, and the size every block shares (None when sizes differ)."""
        if self._stacked is None:
            if not self.blocks:
                raise InputError("window is empty")
            sizes = {block.size for block in self.blocks}
            self._stacked = (
                np.concatenate([block.x for block in self.blocks]),
                np.concatenate([block.y for block in self.blocks]),
                sizes.pop() if len(sizes) == 1 else None,
            )
        return self._stacked


@functools.lru_cache(maxsize=1)
def _window_decay(n: int, b: int, beta: float, delta: float, weight_decay: float, p: int):
    """Row scale and ridge of a window of n blocks of b rows, newest last.

    Returns the (n b, 1) column that scales block i's rows by
    beta^((n - i) / 2), or None at beta = 1, where every factor is 1
    exactly; the ridge delta beta^n + lambda; and that ridge times I (p, p).
    At lambda = 0 the ridge has the bits of delta beta^n. One entry is
    kept: a full window asks for the same one every step.
    """
    decay = None
    if beta != 1.0:
        decay = np.repeat([beta ** ((n - i) / 2.0) for i in range(1, n + 1)], b)[:, None]
        decay.flags.writeable = False
    ridge = delta * beta**n + weight_decay
    ridge_mat = ridge * np.eye(p)
    ridge_mat.flags.writeable = False
    return decay, ridge, ridge_mat


def stepped_weights(make, w, where: str, iteration: int, *, layer=None, step=None):
    """``make(w)``, the one finiteness check of weights an update stage
    stepped: ``make`` builds them through ``linalg.as_array`` (``as_matrix``,
    ``mlp.Layer``, ``conv.ConvLayer``), and its InputError for non-finite
    entries becomes DivergenceError(iteration, layer=layer, step=step),
    "<where>: weights not finite after iteration i[ at precision step s]"."""
    try:
        return make(w)
    except InputError as err:
        at = "" if step is None else f" at precision step {step}"
        message = f"{where}: weights not finite after iteration {iteration}{at}"
        raise DivergenceError(iteration, message, layer=layer, step=step) from err


@np.errstate(over="ignore", invalid="ignore")
def bgd_update(
    w: np.ndarray, window: SlidingWindow, config: GdConfig, rls_cfg: RlsConfig
) -> np.ndarray:
    """Batch gradient descent over the window correlations.

    Iterates W <- W - eta (W Phi - Z + lambda W) starting from the provided
    weights, with lambda the weight decay.
    Raises DivergenceError if the window cost increases for 3 consecutive
    iterations, or if the weights it returns are not finite. Phi, Z and
    every cost come from the window's stacked rows
    (``SlidingWindow.stacked``), scaled by their decay in one multiply: the
    sums of ``accumulate_correlations`` and, for the cost, the residual form
    (||Y_all - X_all W^T||^2 + (delta beta^n + lambda) ||W||^2) / b, which
    at lambda = 0 is ``lse_cost`` summed in another order. The expanded form
    tr(W Phi W^T) - 2 <W, Z> + sum beta^(n-i) ||Y_i||^2 is not used: near an
    exact fit it subtracts nearly equal large terms, and the cancellation
    noise reads as a rising cost and raises false DivergenceErrors.
    """
    x_all, y_all, b = window.stacked()
    p, q = rls_cfg.input_dim, rls_cfg.output_dim
    if x_all.shape[1] != p or y_all.shape[1] != q:
        raise DimensionError(
            f"window widths ({x_all.shape[1]}, {y_all.shape[1]}) do not match "
            f"config ({p}, {q})"
        )
    if b is None:
        raise InputError("cost normalization requires a uniform block size")
    w = as_matrix(w, "weights")
    decay, ridge, ridge_mat = _window_decay(
        len(window), b, rls_cfg.beta, rls_cfg.delta, config.weight_decay, p
    )
    if decay is not None:
        x_all, y_all = x_all * decay, y_all * decay
    phi = x_all.T @ x_all + ridge_mat
    phi = (phi + phi.T) / 2.0
    z = y_all.T @ x_all

    def cost(w: np.ndarray) -> float:
        resid = y_all - x_all @ w.T
        return float(((resid**2).sum() + ridge * (w**2).sum()) / b)

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
    window: SlidingWindow,
    config: GdConfig,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Mini-batch SGD over the window's stacked rows, deterministic given the seed.

    Each iteration steps W <- W - eta (grad + lambda W) with the data
    gradient averaged over the current mini-batch; samples are reshuffled
    once per epoch.
    """
    batch_size = checked_count(batch_size, "batch_size", 1)
    px, py, _ = window.stacked()
    total = px.shape[0]
    if batch_size > total:
        raise ConfigError(
            f"batch size {batch_size} must lie in [1, {total}] for this window"
        )
    w = as_matrix(w, "weights")
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
