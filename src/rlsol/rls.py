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
from .linalg import as_matrix, as_vector, spd_solve, stepped_weights


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


def _check_weights(w, q: int, p: int) -> np.ndarray:
    """The caller's weights as a matrix; DimensionError unless they are (q, p)."""
    w = as_matrix(w, "weights")
    if w.shape != (q, p):
        raise DimensionError(f"weights shape {w.shape} != ({q}, {p})")
    return w


def accumulate_correlations(
    blocks: list[SampleBlock], config: RlsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially-weighted correlation sums over an ordered block list:
    the cross-correlation Z (q, p) and the auto-correlation Phi (p, p),
    which includes the decayed regularizer delta * beta^n * I.
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
    return z, phi


def batch_solve(blocks: list[SampleBlock], config: RlsConfig) -> np.ndarray:
    """Ground-truth normal-equation solution over all blocks.

    Solves W @ Phi = Z through an SPD factorization rather than an explicit
    inverse; mathematically identical, numerically safer.
    """
    z, phi = accumulate_correlations(blocks, config)
    return spd_solve(phi, z.T).T


def lse_cost(w: np.ndarray, blocks: list[SampleBlock], config: RlsConfig) -> float:
    """Exponentially-weighted block cost with the 1/b normalization.

    All blocks must share a block size; the minimizer coincides with
    ``batch_solve`` because the normalization cancels in the normal
    equations. Weights that are not (q, p) and blocks of other widths than
    the config's raise DimensionError.
    """
    if not blocks:
        raise InputError("at least one block required")
    w = _check_weights(w, config.output_dim, config.input_dim)
    for block in blocks:
        _check_block(block, config)
    b = blocks[0].size
    if any(block.size != b for block in blocks):
        raise InputError("cost normalization requires a uniform block size")
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


# At or below this size the precision downdate runs on the full matrix,
# D / 2 + (D / 2)^T with D = (P - Px gain^T) / beta. Outside the subnormal
# range that has the bits of (D + D^T) / 2, which the canonical (p = 16),
# criterion-10 (p = 8) and drift-wide (p = 256) reports were recorded
# with, and it overflows only where D does. Above this size the downdate
# is P - y y^T, in 64-row strips.
_STRIPS_ABOVE = 256


def _degenerate(p_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per precision matrix of ``p_mat`` (p, p) or a stack (S, p, p): whether
    it has a non-finite entry, and whether it has a non-positive diagonal
    entry.

    A finite sum means every entry is finite, so the per-entry test, which
    allocates a p x p boolean array, runs only when a sum overflowed or met
    a non-finite entry. The caller silences the sum's overflow warning.
    """
    nonfinite = ~np.isfinite(p_mat.sum(axis=(-2, -1)))
    if nonfinite.any():
        nonfinite &= ~np.isfinite(p_mat).all(axis=(-2, -1))
    nonpositive = (np.diagonal(p_mat, axis1=-2, axis2=-1) <= 0.0).any(axis=-1)
    return nonfinite, nonpositive


def _precision_gains(p_mat: np.ndarray, x: np.ndarray, beta: float):
    """P x and beta + x^T P x for one P (p, p) and x (p,), or per matrix of
    a stack P (S, p, p) and x (S, p): the same matrix-vector and dot
    products either way."""
    px = (p_mat @ x[..., None])[..., 0]
    return px, beta + (x[..., None, :] @ px[..., None])[..., 0, 0]


def _downdate(p_mat: np.ndarray, px: np.ndarray, denom: np.ndarray, beta: float) -> None:
    """Write (P - Px gain^T) / beta, gain = Px / denom, into ``p_mat``, one
    matrix or a stack, in the form ``advance_precision`` describes."""
    if p_mat.shape[-1] <= _STRIPS_ABOVE:
        gain = px / denom[..., None]  # equals x^T P_new by the gain identity
        down = px[..., :, None] * gain[..., None, :]
        np.subtract(p_mat, down, out=down)
        down /= beta
        down *= 0.5  # before the sum, so it overflows only where D does
        np.add(down, down.mT, out=p_mat)  # exactly symmetric: a + b == b + a
    else:
        # numpy only: scipy's BLAS dsymv/dsyr run on a second OpenBLAS
        # whose thread pool contends with numpy's. At two threads on two
        # cores they made the 512-wide MLP session about three times
        # slower than this loop, though faster at one thread.
        y = px / np.sqrt(denom)[..., None]
        for i in range(0, p_mat.shape[-1], 64):
            strip = p_mat[..., i : i + 64, :]
            strip -= y[..., i : i + 64, None] * y[..., None, :]
            if beta < 1.0:
                strip /= beta


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
    symmetric. Up to p = 256 that is symmetrized as D/2 + D^T/2 over the
    full matrix; above, it is (P - y y^T) / beta with
    y = Px / sqrt(beta + x^T P x), in 64-row strips, exactly symmetric
    because y_i y_j == y_j y_i. Raises DegeneracyError before P is written
    when beta + x^T P x is not positive, and after when positive
    definiteness is lost (a non-finite entry or a non-positive diagonal
    entry); the state then holds the failed P. Either way it keeps its
    step, and no numpy warning comes first. ``advance_precisions`` is the
    same update on a stack of matrices.
    """
    x = _input_vector(state, x_bar)
    beta = state.config.beta
    step = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):
        px, denom = _precision_gains(state.p_mat, x, beta)
        if not denom > 0.0:
            raise DegeneracyError(step, f"update denominator {denom} is not positive at step {step}")
        _downdate(state.p_mat, px, denom, beta)
        nonfinite, nonpositive = _degenerate(state.p_mat)
    if nonfinite:
        raise DegeneracyError(step, "precision update produced non-finite entries")
    if nonpositive:
        raise DegeneracyError(step)
    state.step = step


def advance_precisions(p_mats: np.ndarray, x_bars: np.ndarray, beta: float) -> np.ndarray:
    """``advance_precision`` on a stack: each P of ``p_mats`` (S, p, p) is
    advanced in place by its own input row of ``x_bars`` (S, p), with the
    same bits as alone, except on OpenBLAS's Katmai kernels: there a dot
    product's bits depend on whether an operand is 16-byte aligned, the
    rows of an (S, p) stack with odd p alternate alignment, and so the
    denominator x^T P x of a row that starts 8 bytes off can differ from
    the one-matrix call's. Nothing is checked at entry and nothing raised:
    the result marks each matrix whose advance failed, where
    ``advance_precision`` would raise DegeneracyError. A failed matrix is
    written as well, and holds no meaningful P.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        px, denom = _precision_gains(p_mats, x_bars, beta)
        _downdate(p_mats, px, denom, beta)
        nonfinite, nonpositive = _degenerate(p_mats)
    return ~(denom > 0.0) | nonfinite | nonpositive


def gain_vector(state: RlsState, x_bar: np.ndarray) -> np.ndarray:
    """Innovation weighting k = beta^-1 x^T P / (1 + beta^-1 x^T P x)."""
    x = _input_vector(state, x_bar)
    px = state.p_mat @ x
    return px / (state.config.beta + x @ px)


@np.errstate(over="ignore", invalid="ignore")
def rls_step(
    state: RlsState, w_prev: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, RlsState]:
    """Single-sample recursive weight update.

    W_n = W_{n-1} - (W_{n-1} x - y) x^T P_n (``rls_weights``) with P_n from
    the rank-one precision update. In the update-stage contract of
    ``rlsol.optimizers``, weights that are not finite raise DivergenceError
    at iteration 0, carrying the advanced precision step.
    """
    cfg = state.config
    w_prev = _check_weights(w_prev, cfg.output_dim, cfg.input_dim)
    x = as_vector(x, "input")
    y = as_vector(y, "target")
    if y.size != cfg.output_dim:
        raise DimensionError(f"target length {y.size} != {cfg.output_dim}")
    state = update_precision(state, x)
    w_new = rls_weights(state.p_mat, w_prev, x, y)
    return stepped_weights(as_matrix, w_new, "rls_step", 0, step=state.step), state


def rls_weights(p_mat: np.ndarray, w_prev: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W_{n-1} - (W_{n-1} x - y) x^T P_n for one problem, or per problem of
    a stack P (S, p, p), W (S, q, p), x (S, p), y (S, q), unchecked."""
    residual = (w_prev @ x[..., None])[..., 0] - y
    return w_prev - residual[..., :, None] * (x[..., None, :] @ p_mat)


def block_virtual_input(block: SampleBlock) -> tuple[np.ndarray, np.ndarray]:
    """Virtual sample pair: unweighted arithmetic means of the block rows."""
    if block.size < 1:
        raise InputError("block is empty")
    return block.x.mean(axis=0), block.y.mean(axis=0)
