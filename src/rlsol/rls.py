"""Exponentially-weighted regularized least squares and its exact recursion.

The batch path accumulates the input auto-correlation and the input/output
cross-correlation over all data blocks and solves the normal equations; the
recursive path maintains the inverse auto-correlation (precision matrix)
through rank-one Sherman-Morrison updates and reproduces the batch solution
step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, DimensionError, InputError
from .linalg import as_matrix, as_vector, spd_solve


@dataclass(frozen=True)
class RlsConfig:
    """Problem dimensions plus the forgetting factor and regularizer."""

    input_dim: int
    output_dim: int
    beta: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("dimensions must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"forgetting factor must be in (0, 1], got {self.beta}")
        if not 0.0 < self.delta < math.inf:
            raise ConfigError(f"regularizer must be positive and finite, got {self.delta}")


@dataclass
class SampleBlock:
    """A block of input/output rows with optional non-negative row weights."""

    x: np.ndarray  # (b, p)
    y: np.ndarray  # (b, q)
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x, "block inputs")
        self.y = as_matrix(self.y, "block targets")
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"input rows {self.x.shape[0]} != target rows {self.y.shape[0]}"
            )
        if self.weights is not None:
            self.weights = as_vector(self.weights, "block weights")
            if self.weights.size != self.x.shape[0]:
                raise DimensionError("one weight per row required")
            if (self.weights < 0).any():
                raise InputError("weights must be non-negative")

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def weighted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows scaled by the square root of their weights."""
        if self.weights is None:
            return self.x, self.y
        root = np.sqrt(self.weights)[:, None]
        return self.x * root, self.y * root


@dataclass
class CorrelationPair:
    """Cross-correlation (q, p) and regularized auto-correlation (p, p).

    ``x_rows`` (N, p) and ``y_rows`` (N, q) are the stacked rows the sums
    came from, block i of n scaled by sqrt(weights) * beta^((n - i) / 2), so
    ``||y_rows - x_rows W^T||^2`` is the decayed data cost of W.
    """

    z_mat: np.ndarray
    phi_mat: np.ndarray
    x_rows: np.ndarray
    y_rows: np.ndarray


@dataclass
class RlsState:
    """Precision matrix (inverse auto-correlation) plus the time index."""

    p_mat: np.ndarray
    step: int
    config: RlsConfig

    def clone(self) -> "RlsState":
        return RlsState(self.p_mat.copy(), self.step, self.config)


def init_state(config: RlsConfig) -> RlsState:
    """Fresh state at step 0 with precision matrix I / delta."""
    p0 = np.eye(config.input_dim) / config.delta
    return RlsState(p_mat=p0, step=0, config=config)


def _check_block(block: SampleBlock, config: RlsConfig) -> None:
    if block.x.shape[1] != config.input_dim or block.y.shape[1] != config.output_dim:
        raise DimensionError(
            f"block dims ({block.x.shape[1]}, {block.y.shape[1]}) do not match "
            f"config ({config.input_dim}, {config.output_dim})"
        )


def _check_weights(w, config: RlsConfig) -> np.ndarray:
    w = as_matrix(w, "weights")
    if w.shape != (config.output_dim, config.input_dim):
        raise DimensionError(
            f"weights shape {w.shape} != ({config.output_dim}, {config.input_dim})"
        )
    return w


def accumulate_correlations(blocks: list[SampleBlock], config: RlsConfig) -> CorrelationPair:
    """Exponentially-weighted correlation sums over an ordered block list.

    The auto-correlation includes the decayed regularizer delta * beta^n * I.
    """
    if not blocks:
        raise InputError("at least one block required")
    for block in blocks:
        _check_block(block, config)
    n = len(blocks)
    # Stack all rows once, scaling each block by beta^((n - i) / 2), so the
    # sums reduce to two GEMMs.
    xs, ys = [], []
    for i, block in enumerate(blocks, start=1):
        bx, by = block.weighted_rows()
        decay = config.beta ** ((n - i) / 2.0)
        xs.append(bx * decay)
        ys.append(by * decay)
    x_all = np.vstack(xs)
    y_all = np.vstack(ys)
    phi = x_all.T @ x_all + config.delta * config.beta**n * np.eye(config.input_dim)
    z = y_all.T @ x_all
    phi = (phi + phi.T) / 2.0
    return CorrelationPair(z_mat=z, phi_mat=phi, x_rows=x_all, y_rows=y_all)


def batch_solve(blocks: list[SampleBlock], config: RlsConfig) -> np.ndarray:
    """Ground-truth normal-equation solution over all blocks.

    Solves W @ Phi = Z through an SPD factorization rather than an explicit
    inverse; mathematically identical, numerically safer.
    """
    corr = accumulate_correlations(blocks, config)
    return spd_solve(corr.phi_mat, corr.z_mat.T).T


def lse_cost(w: np.ndarray, blocks: list[SampleBlock], config: RlsConfig) -> float:
    """Exponentially-weighted block cost with the 1/b normalization.

    All blocks must share a block size; the minimizer coincides with
    ``batch_solve`` because the normalization cancels in the normal
    equations.
    """
    if not blocks:
        raise InputError("at least one block required")
    b = blocks[0].size
    if any(block.size != b for block in blocks):
        raise InputError("cost normalization requires a uniform block size")
    w = as_matrix(w, "weights")
    n = len(blocks)
    total = 0.0
    for i, block in enumerate(blocks, start=1):
        bx, by = block.weighted_rows()
        resid = by - bx @ w.T
        total += config.beta ** (n - i) * np.sum(resid**2) / b
    total += (config.delta / b) * config.beta**n * np.sum(w**2)
    return float(total)


def _input_vector(state: RlsState, x_bar: np.ndarray) -> np.ndarray:
    x = as_vector(x_bar, "input")
    if x.size != state.config.input_dim:
        raise DimensionError(
            f"input length {x.size} != configured dimension {state.config.input_dim}"
        )
    return x


# The one-pass transposed read is slow when the row stride aliases in cache,
# i.e. when p * 8 bytes is a multiple of 256; _symmetrized then works on
# _TILE x _TILE block pairs instead. One BLAS thread, one pass -> tiled, per
# call: 4.2 -> 2.0 ms at p = 1024, 0.70 -> 0.49 at 512, 0.76 -> 0.65 at 608,
# 1.30 -> 1.23 at 800; but 0.34 -> 0.45 at 520, 1.51 -> 1.70 at 1000 (stride
# a multiple of 64 bytes only), and 0.10 -> 0.11 at 256.
_TILE_ABOVE = 256
_ALIASING_ROWS = 32
_TILE = 64


def _symmetrized(down: np.ndarray) -> np.ndarray:
    """(down + down^T) / 2, exactly symmetric since a + b == b + a.

    Tiled or not, every entry is (down[i, j] + down[j, i]) * 0.5 with the
    same roundings, so both paths give the same bits.
    """
    p = down.shape[0]
    if p <= _TILE_ABOVE or p % _ALIASING_ROWS:
        p_new = down + down.T
        p_new *= 0.5
        return p_new
    p_new = np.empty_like(down)
    for i in range(0, p, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, p, _TILE):
            cols = slice(j, j + _TILE)
            t = down[rows, cols] + down[cols, rows].T
            t *= 0.5
            p_new[rows, cols] = t
            if j != i:
                p_new[cols, rows] = t.T
    return p_new


def update_precision(state: RlsState, x_bar: np.ndarray) -> RlsState:
    """Rank-one Sherman-Morrison update of the precision matrix.

    Re-symmetrizes the result; raises DegeneracyError when positive
    definiteness is lost (any non-positive diagonal entry).
    """
    x = _input_vector(state, x_bar)
    beta = state.config.beta
    px = state.p_mat @ x
    denom = beta + x @ px
    gain = px / denom  # equals x^T P_new by the gain identity
    # ((P - px gain^T) / beta + transpose) / 2 with the same roundings in two
    # fresh arrays; P is never written, so callers' old states stay intact.
    down = np.multiply.outer(px, gain)
    np.subtract(state.p_mat, down, out=down)
    down /= beta
    p_new = _symmetrized(down)
    step = state.step + 1
    if not np.isfinite(p_new).all():
        raise DegeneracyError(step, "precision update produced non-finite entries")
    if (np.diag(p_new) <= 0.0).any():
        raise DegeneracyError(step)
    return RlsState(p_mat=p_new, step=step, config=state.config)


def gain_vector(state: RlsState, x_bar: np.ndarray) -> np.ndarray:
    """Innovation weighting k = beta^-1 x^T P / (1 + beta^-1 x^T P x)."""
    x = _input_vector(state, x_bar)
    px = state.p_mat @ x
    return px / (state.config.beta + x @ px)


def rls_step(
    state: RlsState, w_prev: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, RlsState]:
    """Single-sample recursive weight update.

    W_n = W_{n-1} - (W_{n-1} x - y) x^T P_n with P_n from the rank-one
    precision update.
    """
    cfg = state.config
    w_prev = _check_weights(w_prev, cfg)
    x = as_vector(x, "input")
    y = as_vector(y, "target")
    if y.size != cfg.output_dim:
        raise DimensionError(f"target length {y.size} != {cfg.output_dim}")
    new_state = update_precision(state, x)
    return rls_apply(new_state, w_prev, x, y), new_state


def rls_apply(state: RlsState, w_prev: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The weight half of ``rls_step``, with a state already advanced by x.

    Returns W_{n-1} - (W_{n-1} x - y) x^T P_n. The arguments are not checked
    at entry (``rls_step`` does that); the returned weights are checked once.
    """
    residual = w_prev @ x - y
    w_new = w_prev - np.outer(residual, x @ state.p_mat)
    return as_matrix(w_new, "weights")


def block_virtual_input(block: SampleBlock) -> tuple[np.ndarray, np.ndarray]:
    """Virtual sample pair: unweighted arithmetic means of the block rows."""
    if block.size < 1:
        raise InputError("block is empty")
    return block.x.mean(axis=0), block.y.mean(axis=0)


def rls_block_step(
    state: RlsState, w_prev: np.ndarray, block: SampleBlock
) -> tuple[np.ndarray, RlsState]:
    """Block update through the virtual sample pair.

    Exact for b = 1; for b > 1 it advances the precision matrix with the
    block mean and applies the single-sample recursion to it.
    """
    _check_block(block, state.config)
    x_bar, y_bar = block_virtual_input(block)
    return rls_step(state, w_prev, x_bar, y_bar)
