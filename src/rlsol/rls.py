"""Exponentially-weighted regularized least squares and its exact recursion.

The batch path accumulates the input auto-correlation and the input/output
cross-correlation over all data blocks and solves the normal equations; the
recursive path maintains the inverse auto-correlation (precision matrix)
through rank-one Sherman-Morrison updates and reproduces the batch solution
step by step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError, DimensionError, InputError
from .linalg import as_matrix, as_vector, spd_solve


def checked_count(value, name: str, minimum: int) -> int:
    """``value`` as an int; ConfigError naming ``name`` when it is not an
    integer (a float such as 2.0 included) or is below ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RlsConfig:
    """Problem dimensions plus the forgetting factor and regularizer."""

    input_dim: int
    output_dim: int
    beta: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        checked_count(self.input_dim, "input_dim", 1)
        checked_count(self.output_dim, "output_dim", 1)
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"forgetting factor must be in (0, 1], got {self.beta}")
        if not 0.0 < self.delta < math.inf:
            raise ConfigError(f"regularizer must be positive and finite, got {self.delta}")


@dataclass
class SampleBlock:
    """A block of input/output rows."""

    x: np.ndarray  # (b, p)
    y: np.ndarray  # (b, q)

    def __post_init__(self):
        self.x = as_matrix(self.x, "block inputs")
        self.y = as_matrix(self.y, "block targets")
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"input rows {self.x.shape[0]} != target rows {self.y.shape[0]}"
            )

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass
class CorrelationPair:
    """Cross-correlation (q, p) and regularized auto-correlation (p, p)."""

    z_mat: np.ndarray
    phi_mat: np.ndarray


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
        decay = config.beta ** ((n - i) / 2.0)
        xs.append(block.x * decay)
        ys.append(block.y * decay)
    x_all = np.vstack(xs)
    y_all = np.vstack(ys)
    phi = x_all.T @ x_all + config.delta * config.beta**n * np.eye(config.input_dim)
    z = y_all.T @ x_all
    phi = (phi + phi.T) / 2.0
    return CorrelationPair(z_mat=z, phi_mat=phi)


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
        resid = block.y - block.x @ w.T
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


# At or below this size the precision downdate keeps the arithmetic the
# canonical (p = 16), criterion-10 (p = 8) and drift-wide (p = 256) reports
# were recorded with, ((P - Px gain^T) / beta + transpose) / 2 on the full
# matrix. Above it the downdate is P - y y^T, in 64-row strips.
_STRIPS_ABOVE = 256


def _check_precision(p_mat: np.ndarray, step: int) -> None:
    """DegeneracyError at ``step`` when P has a non-finite entry or a
    non-positive diagonal entry.

    A finite sum means every entry is finite, so the per-entry test, which
    allocates a p x p boolean array, runs only when the sum overflowed or
    met a non-finite entry. The caller silences the sum's overflow warning.
    """
    if not (np.isfinite(p_mat.sum()) or np.isfinite(p_mat).all()):
        raise DegeneracyError(step, "precision update produced non-finite entries")
    if (np.diag(p_mat) <= 0.0).any():
        raise DegeneracyError(step)


def update_precision(state: RlsState, x_bar: np.ndarray) -> RlsState:
    """Rank-one Sherman-Morrison update of the precision matrix:
    ``advance_precision`` on a clone, so the given state is never written."""
    new = state.clone()
    advance_precision(new, x_bar)
    return new


def advance_precision(state: RlsState, x_bar: np.ndarray) -> None:
    """Rank-one Sherman-Morrison update written into the state's own P.

    The state must belong to the caller alone. P becomes
    (P - Px gain^T) / beta with gain = Px / (beta + x^T P x), exactly
    symmetric. Up to p = 256 that is symmetrized as (D + D^T) / 2 over the
    full matrix; above, it is (P - y y^T) / beta with
    y = Px / sqrt(beta + x^T P x), in 64-row strips, exactly symmetric
    because y_i y_j == y_j y_i. Raises DegeneracyError before P is written
    when beta + x^T P x is not positive, and after when positive
    definiteness is lost (a non-finite entry or a non-positive diagonal
    entry); the state then holds the failed P. Either way it keeps its
    step, and no numpy warning comes first.
    """
    x = _input_vector(state, x_bar)
    beta = state.config.beta
    p_mat = state.p_mat
    step = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):
        px = p_mat @ x
        denom = beta + x @ px
        if not denom > 0.0:
            raise DegeneracyError(step, f"update denominator {denom} is not positive at step {step}")
        if x.size <= _STRIPS_ABOVE:
            gain = px / denom  # equals x^T P_new by the gain identity
            down = np.multiply.outer(px, gain)
            np.subtract(p_mat, down, out=down)
            down /= beta
            np.add(down, down.T, out=p_mat)  # exactly symmetric: a + b == b + a
            p_mat *= 0.5
        else:
            # numpy only: scipy's BLAS dsymv/dsyr run on a second OpenBLAS
            # whose thread pool contends with numpy's. At two threads on two
            # cores they made the 512-wide MLP session about three times
            # slower than this loop, though faster at one thread.
            y = px / math.sqrt(denom)
            for i in range(0, x.size, 64):
                strip = p_mat[i : i + 64]
                strip -= np.multiply.outer(y[i : i + 64], y)
                if beta < 1.0:
                    strip /= beta
        _check_precision(p_mat, step)
    state.step = step


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
