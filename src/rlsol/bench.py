"""Synthetic non-stationary stream benchmark.

Generates seeded piecewise-stationary regression or rotating-Gaussian
classification streams, runs the configured learners over them, and
records retention / adaptation errors and forgetting gaps with per-seed
pairing.

The seeds of a run step together: ``compare_retention`` splits them into
balanced chunks of at most ``_CHUNK_BYTES``, every learner steps all
streams of a chunk with one numpy call per operation, and one evaluation
per regime and step scores every learner on every stream. At the
canonical p = 16 each call costs microseconds of overhead whatever its
size, so one call per seed would spend most of the run there. Each
stream's products and sums are those it takes alone, so its report has
the same bits.

A chunk does not hold its streams' rows. It draws each stream once up
front, keeping the holdouts and the generator state at the start of each
regime's blocks; the run then redraws block t of every stream from those
states into a buffer of the last ``min(2 W, n_blocks)`` blocks, W the
widest window its learners read, and moves the buffer's last W - 1 blocks
to its front when it is full.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .linalg import as_array
from .optimizers import (
    EmaConfig,
    GdConfig,
    bgd_steps,
    check_ridge,
    mbsgd_steps,
    precond_steps,
)
from .rls import (
    RlsConfig,
    SampleBlock,
    advance_precisions,
    checked_count,
    init_state,
    rls_weights,
)

REGRESSION = "piecewise_linear_regression"
CLASSIFICATION = "rotating_gaussian_classification"
_KINDS = (REGRESSION, CLASSIFICATION)

LEARNER_KINDS = ("plain_bgd", "mbsgd", "ema", "rls_precond", "exact_rls")
# the learners that advance the precision recursion
_RLS_KINDS = ("rls_precond", "exact_rls")

# the learners that read a window of blocks, not only the newest
_WINDOW_KINDS = ("plain_bgd", "mbsgd", "ema")

# The streams of a chunk run stacked while their holdouts, row buffers and
# precision matrices take at most this many bytes (``_stream_bytes``); a
# larger stream runs alone, as a drift-wide one (p = 256, 1.6 MB) does. A
# canonical stream takes 93 KB, so 11 share a chunk. When every row was
# held, a canonical stream took 202 KB, and 2 and 4 MiB chunks ran faster
# than 1 MiB but raised peak RSS by over 1 MB.
_CHUNK_BYTES = 1 << 20


@dataclass
class DriftScenario:
    kind: str
    input_dim: int
    output_dim: int
    regimes: list[np.ndarray]  # each regime's ground-truth parameters (q, p)
    regime_blocks: int         # the stream's blocks per regime
    block_size: int
    noise_sigma: float
    seed: int
    holdout_size: int = 256

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        self.input_dim = checked_count(self.input_dim, "input_dim", 1)
        self.output_dim = checked_count(self.output_dim, "output_dim", 1)
        self.regime_blocks = checked_count(self.regime_blocks, "regime_blocks", 1)
        self.block_size = checked_count(self.block_size, "block_size", 1)
        self.holdout_size = checked_count(self.holdout_size, "holdout_size", 1)
        self.seed = checked_count(self.seed, "seed", 0)
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(
                f"noise sigma must be non-negative and finite, got {self.noise_sigma}"
            )
        if not self.regimes:
            raise ConfigError("at least one regime required")
        self.regimes = [as_array(weight, "regime weight", 2) for weight in self.regimes]
        for weight in self.regimes:
            if weight.shape != (self.output_dim, self.input_dim):
                raise ConfigError(
                    f"regime weight shape {weight.shape} != "
                    f"({self.output_dim}, {self.input_dim})"
                )

    @property
    def n_blocks(self) -> int:
        return len(self.regimes) * self.regime_blocks


def make_regimes(rng: np.random.Generator, n_regimes: int, p: int, q: int) -> list[np.ndarray]:
    """Random unit-row ground truths, each regime orthogonalized against
    all previous ones so regime optima are well separated."""
    if n_regimes * q > p:
        raise ConfigError(f"cannot fit {n_regimes} orthogonal regimes of {q} rows in dimension {p}")
    basis: list[np.ndarray] = []
    regimes = []
    for _ in range(n_regimes):
        rows = []
        for _ in range(q):
            v = rng.standard_normal(p)
            for u in basis:
                v -= (v @ u) * u
            v /= np.linalg.norm(v)
            basis.append(v)
            rows.append(v)
        regimes.append(np.array(rows))
    return regimes


def rotate_means(base: np.ndarray, angle: float) -> np.ndarray:
    """Rotate class means by `angle` in the plane of the first two axes."""
    out = base.copy()
    c, s = np.cos(angle), np.sin(angle)
    x0, x1 = base[:, 0], base[:, 1]
    out[:, 0] = c * x0 - s * x1
    out[:, 1] = s * x0 + c * x1
    return out


def build_scenario(
    kind: str,
    input_dim: int,
    output_dim: int,
    n_regimes: int,
    regime_blocks: int,
    block_size: int,
    noise_sigma: float,
    seed: int,
    holdout_size: int = 256,
) -> DriftScenario:
    """Scenario with ground truths derived deterministically from the seed.

    Regression regimes get mutually orthogonal unit-row weights; the
    classification ground truth rotates a fixed set of class means by a
    quarter turn per regime.
    """
    input_dim = checked_count(input_dim, "input_dim", 1)
    output_dim = checked_count(output_dim, "output_dim", 1)
    n_regimes = checked_count(n_regimes, "n_regimes", 1)
    rng = np.random.default_rng(checked_count(seed, "seed", 0))
    if kind == REGRESSION:
        regimes = make_regimes(rng, n_regimes, input_dim, output_dim)
    elif kind == CLASSIFICATION:
        if input_dim < 2:
            raise ConfigError("classification scenarios need input_dim >= 2")
        base = rng.standard_normal((output_dim, input_dim))
        base *= 2.0 / np.linalg.norm(base, axis=1, keepdims=True)
        regimes = [rotate_means(base, r * np.pi / 2.0) for r in range(n_regimes)]
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    return DriftScenario(
        kind=kind,
        input_dim=input_dim,
        output_dim=output_dim,
        regimes=regimes,
        regime_blocks=regime_blocks,
        block_size=block_size,
        noise_sigma=noise_sigma,
        seed=seed,
        holdout_size=holdout_size,
    )


@dataclass
class Stream:
    """A drift stream's rows, all blocks stacked in stream order: ``x``
    (n_blocks * b, p) and ``y`` (n_blocks * b, q). ``blocks[i]`` is a
    ``SampleBlock`` view of rows [i b, (i + 1) b), so any run of blocks is
    one contiguous run of rows."""

    x: np.ndarray
    y: np.ndarray
    regime_of_block: list[int]
    digest: str
    holdouts: list[SampleBlock]  # one per regime, each drawn just before its regime's blocks

    @property
    def blocks(self) -> list[SampleBlock]:
        n = len(self.regime_of_block)
        return [SampleBlock(x, y) for x, y in zip(np.split(self.x, n), np.split(self.y, n))]


def _draw(
    scenario: DriftScenario, rng: np.random.Generator, weight: np.ndarray, x: np.ndarray, y: np.ndarray
) -> None:
    """Draw len(x) rows straight into ``x`` (n, p) and ``y`` (n, q)."""
    if scenario.kind == REGRESSION:
        rng.standard_normal(out=x)
        np.matmul(x, weight.T, out=y)
        y += scenario.noise_sigma * rng.standard_normal(y.shape)
        return
    labels = rng.integers(0, y.shape[1], size=len(x))
    np.add(weight[labels], scenario.noise_sigma * rng.standard_normal(x.shape), out=x)
    y[:] = 0.0
    y[np.arange(len(x)), labels] = 1.0


class _Rows(NamedTuple):
    """Input and target rows of S stacked streams: x (S, n, p), y (S, n, q)."""

    x: np.ndarray
    y: np.ndarray


def _buffer_blocks(scenario: DriftScenario, window: int) -> int:
    return min(2 * window, scenario.n_blocks)


def _stream_bytes(scenario: DriftScenario, window: int) -> int:
    """The bytes one stream holds in a chunk whose widest window is
    ``window`` blocks: its holdouts, its row buffer and its P."""
    p, q, b = scenario.input_dim, scenario.output_dim, scenario.block_size
    rows = len(scenario.regimes) * scenario.holdout_size + _buffer_blocks(scenario, window) * b
    return 8 * (rows * (p + q) + p * p)


@dataclass
class _Chunk:
    """S streams of one scenario, stacked: each regime's holdout, and a row
    buffer that ``advance`` fills block by block."""

    scenario: DriftScenario
    seeds: list[int]
    holdouts: list[_Rows]            # one per regime
    rngs: list[np.random.Generator]  # one per stream
    starts: list[list[dict]]         # [stream][regime]: generator state at the regime's first block
    hashes: list                     # sha256 of each stream's blocks drawn so far
    buffer: _Rows                    # (S, blocks · b, ·)
    window: int
    drawn: int = 0  # the blocks drawn so far
    first: int = 0  # the block in the buffer's first slot

    def advance(self) -> _Rows:
        """Redraw the next block of every stream into the buffer, add it to
        the stream's digest, and return the window view: the rows of the
        last ``window`` blocks drawn, fewer at the start. When the buffer
        is full, its last window - 1 blocks move to the front first."""
        scenario, t, b = self.scenario, self.drawn, self.scenario.block_size
        x, y = self.buffer
        slot = t - self.first
        if slot * b == x.shape[1]:
            keep = self.window - 1
            x[:, : keep * b] = x[:, (slot - keep) * b :]
            y[:, : keep * b] = y[:, (slot - keep) * b :]
            self.first, slot = t - keep, keep
        regime, i = divmod(t, scenario.regime_blocks)
        x_new, y_new = x[:, slot * b : (slot + 1) * b], y[:, slot * b : (slot + 1) * b]
        for k, (rng, h) in enumerate(zip(self.rngs, self.hashes)):
            if i == 0:
                rng.bit_generator.state = self.starts[k][regime]
            _draw(scenario, rng, scenario.regimes[regime], x_new[k], y_new[k])
            h.update(x_new[k])
            h.update(y_new[k])
        self.drawn = t + 1
        lo = max(0, t + 1 - self.window) - self.first
        return _Rows(x[:, lo * b : (slot + 1) * b], y[:, lo * b : (slot + 1) * b])

    @property
    def digests(self) -> list[str]:
        """Each stream's sha256 over each block's input bytes, then its
        target bytes: complete once every block is drawn."""
        return [h.hexdigest() for h in self.hashes]


def _draw_chunk(scenario: DriftScenario, seeds: list[int], window: int) -> _Chunk:
    """The chunk of ``seeds`` for learners whose widest window is
    ``window`` blocks. Each seed draws from its own generator, regime by
    regime: the holdout, then the regime's blocks, into a one-block
    scratch only to move the generator past them. The last regime's blocks
    are not drawn here. A holdout that is not finite raises ConfigError
    naming ``noise_sigma``; numpy's overflow warnings about it would only
    repeat that."""
    n_seeds, b, m = len(seeds), scenario.block_size, scenario.holdout_size
    p, q = scenario.input_dim, scenario.output_dim
    holdouts = [_Rows(np.empty((n_seeds, m, p)), np.empty((n_seeds, m, q))) for _ in scenario.regimes]
    scratch = _Rows(np.empty((b, p)), np.empty((b, q)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    starts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, rng in enumerate(rngs):
            states = []
            for r, weight in enumerate(scenario.regimes):
                held_x, held_y = holdouts[r].x[k], holdouts[r].y[k]
                _draw(scenario, rng, weight, held_x, held_y)
                if not (np.isfinite(held_x).all() and np.isfinite(held_y).all()):
                    raise ConfigError(
                        f"noise_sigma {scenario.noise_sigma} gives non-finite holdout rows in regime {r + 1}"
                    )
                states.append(rng.bit_generator.state)
                if r + 1 < len(scenario.regimes):
                    for _ in range(scenario.regime_blocks):
                        _draw(scenario, rng, weight, *scratch)
            starts.append(states)
    rows = _buffer_blocks(scenario, window) * b
    buffer = _Rows(np.empty((n_seeds, rows, p)), np.empty((n_seeds, rows, q)))
    hashes = [hashlib.sha256() for _ in seeds]
    return _Chunk(scenario, seeds, holdouts, rngs, starts, hashes, buffer, window)


def generate_stream(scenario: DriftScenario) -> Stream:
    """Deterministic stream: all randomness flows through scenario.seed.
    The one-seed chunk of ``_draw_chunk`` whose window is the whole
    stream, advanced to its end, as views."""
    chunk = _draw_chunk(scenario, [scenario.seed], scenario.n_blocks)
    for _ in range(scenario.n_blocks):
        chunk.advance()
    regime_of_block = [r for r in range(len(scenario.regimes)) for _ in range(scenario.regime_blocks)]
    holdouts = [SampleBlock(held.x[0], held.y[0]) for held in chunk.holdouts]
    return Stream(chunk.buffer.x[0], chunk.buffer.y[0], regime_of_block, chunk.digests[0], holdouts)


def evaluate(w: np.ndarray, holdout, kind: str):
    """Mean squared error (regression) or mean softmax cross-entropy of
    ``w`` on the holdout, reduced as ``np.mean`` reduces: sum over size.

    ``w`` is (q, p) and the holdout a ``SampleBlock``, giving a float; or
    ``w`` is a stack (..., S, q, p), such as (L, S, q, p) for L learners,
    and the holdout's ``x``/``y`` stacks (S, m, .), giving one error per
    weight matrix, (..., S), each with the bits it has alone.
    """
    z = holdout.x @ w.mT
    if kind == REGRESSION:
        loss = (holdout.y - z) ** 2
    else:
        z = z - z.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        # negated row by row: rounding is sign-symmetric, so the sum is
        # exactly the negated sum of the rows
        loss = -(holdout.y * logp).sum(axis=-1)
    loss = loss.reshape(*w.shape[:-2], -1)
    error = loss.sum(axis=-1) / loss.shape[-1]
    return float(error) if w.ndim == 2 else error


@dataclass
class BenchParams:
    """Learner configuration shared across the paired comparison."""

    window: int = 10
    iterations: int = 5
    lr_bgd: float = 5e-3
    lr_mbsgd: float = 3e-2
    batch_size: int = 8
    ema_inner_lr: float = 5e-3
    rls_beta: float = 0.97
    rls_delta: float = 1.0
    rls_lr: float = 0.06
    weight_decay: float = 0.0
    window_delta: float = 1e-6


@dataclass
class LearnerSpec:
    """Parsed learner identifier: kind plus the EMA coefficient if any."""

    name: str
    kind: str
    alpha: float | None = None


def parse_learner_spec(text: str) -> LearnerSpec:
    text = text.strip()
    kind, colon, coef = text.partition(":")
    if kind == "ema":
        alpha = 0.5
        if colon:
            try:
                alpha = float(coef)
            except ValueError as err:
                raise ConfigError(f"bad EMA coefficient in {text!r}") from err
        EmaConfig(alpha)  # range check
        return LearnerSpec(text, "ema", alpha)
    if text not in LEARNER_KINDS:
        raise ConfigError(f"unknown learner {text!r}")
    return LearnerSpec(text, text)


@dataclass
class RunReport:
    """One learner's metric record on one stream.

    ``wall_ms`` is the learner's own update time plus its share of the
    work the run's loop times once per step for several learners: the
    evaluation, which scores every learner and is split evenly among all
    of them, and the shared precision advance, split evenly among the RLS
    learners. Streams that run stacked (``compare_retention``) are timed
    together, so each gets its chunk's time divided by the chunk's stream
    count.
    """

    learner: str
    stream_digest: str
    adaptation_error: np.ndarray          # (n_blocks,)
    retention_error: np.ndarray           # (n_regimes, n_blocks)
    forgetting_gap: np.ndarray            # (n_regimes, n_blocks)
    wall_ms: float
    diverged_at: int | None = None
    failed_at: int | None = None   # step whose update raised another RlsolError
    failure: str | None = None     # that error's class name

    @property
    def n_steps(self) -> int:
        return self.adaptation_error.size


class _Learner:
    """One learner's settings, ``window_delta`` for every kind, checked when
    it is built. At step t a window learner reads the chunk's window view
    (``_Chunk.advance``), the rows of blocks max(0, t + 1 - window) to t of
    each stream, unweighted; the other learners read its last block."""

    def __init__(self, spec: LearnerSpec, scenario: DriftScenario, params: BenchParams):
        self.spec = spec
        self.block_size = scenario.block_size
        self.params = params
        # built and checked once, so a bad setting fails before the first update
        lr = {
            "plain_bgd": params.lr_bgd,
            "mbsgd": params.lr_mbsgd,
            "ema": params.ema_inner_lr,
            "rls_precond": params.rls_lr,
        }.get(spec.kind)
        self.gd_cfg = (
            None if lr is None else GdConfig(lr, params.iterations, params.weight_decay)
        )
        check_ridge(params.window_delta)
        if spec.kind == "mbsgd":
            checked_count(params.batch_size, "batch_size", 1)

    def update(self, w: np.ndarray, rows: _Rows, seeds: list[int], step: int, p_mats: np.ndarray):
        """The stepped weights (S, q, p) of every stream of the chunk on the
        window view ``rows``, and where they diverged."""
        kind, gd, b = self.spec.kind, self.gd_cfg, self.block_size
        if kind not in _WINDOW_KINDS:  # the newest block only
            rows = _Rows(rows.x[:, -b:], rows.y[:, -b:])
        x, y = rows
        rose = False
        if kind == "mbsgd":
            step_seeds = [(seed * 1_000_003 + step) % 2**63 for seed in seeds]
            w_new = mbsgd_steps(w, x, y, gd, self.params.batch_size, step_seeds)
        elif kind in ("plain_bgd", "ema"):
            w_new, rose_at = bgd_steps(w, x, y, gd, self.params.window_delta)
            rose = rose_at >= 0
            if kind == "ema":  # ema_combine, whose weights are finite where bgd's are
                w_new = (1.0 - self.spec.alpha) * w + self.spec.alpha * w_new
        elif kind == "rls_precond":
            w_new = precond_steps(w, x, y, p_mats, gd)
        else:  # exact_rls, on the block's virtual input
            w_new = rls_weights(p_mats, w, x.mean(axis=1), y.mean(axis=1))
        return w_new, rose | ~np.isfinite(w_new).all(axis=(1, 2))


def _widest_window(specs: list[LearnerSpec], params: BenchParams) -> int:
    """The most blocks a learner of ``specs`` reads at a step. The
    ``window`` setting is checked whichever learners run."""
    window = checked_count(params.window, "window", 1)
    return window if any(spec.kind in _WINDOW_KINDS for spec in specs) else 1


def _run_chunk(
    specs: list[LearnerSpec], scenario: DriftScenario, seeds: list[int], params: BenchParams
) -> list[list[RunReport]]:
    """Draw the chunk of ``seeds`` and feed its streams through every
    learner; the reports, [stream][learner], are those of each stream run
    alone. Every learner's settings are checked before the chunk is drawn.

    The run holds every learner's weights on every stream, ``w``
    (L, S, q, p), and their errors on every regime's holdout,
    ``retention`` (L, S, R, T). Each step, each learner that still runs on
    some stream updates all S streams in one stacked call, and one
    ``evaluate`` call per regime scores the whole (L, S) stack. A
    (learner, stream) whose update diverges, or whose precision advance
    fails, stops there: its weights keep their last values, so it is
    scored again with the same bits at every later step.

    The RLS learners share one precision recursion per stream: it reads
    only the block inputs, beta and delta. While any of them runs on any
    stream, this loop advances every stream's state in place once per step
    (``advance_precisions``), before the learners step; a stream whose
    advance failed stops its RLS learners before their update, as the
    DegeneracyError it stands for.
    """
    p, q = scenario.input_dim, scenario.output_dim
    config = RlsConfig(p, q, beta=params.rls_beta, delta=params.rls_delta)
    window = _widest_window(specs, params)
    learners = [_Learner(spec, scenario, params) for spec in specs]
    chunk = _draw_chunk(scenario, seeds, window)
    is_rls = np.array([spec.kind in _RLS_KINDS for spec in specs])
    n_learners, n_seeds, n_blocks = len(specs), len(seeds), scenario.n_blocks
    w = np.zeros((n_learners, n_seeds, q, p))
    retention = np.empty((n_learners, n_seeds, len(scenario.regimes), n_blocks))
    stop_at = np.full((n_learners, n_seeds), -1)  # the step each stopped at, or -1
    by_advance = np.zeros((n_learners, n_seeds), bool)  # stopped by a failed advance
    p_mats = np.broadcast_to(init_state(config).p_mat, (n_seeds, p, p)).copy()
    failed = np.zeros(n_seeds, bool)
    seconds = np.zeros(n_learners)
    advance_seconds = evaluate_seconds = 0.0
    # a failing learner's overflow is recorded in its report; numpy's
    # warnings about it would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_blocks):
            rows = chunk.advance()
            running = stop_at < 0
            if running[is_rls].any():
                start = time.perf_counter()
                x_bars = rows.x[:, -scenario.block_size :].mean(axis=1)
                failed = advance_precisions(p_mats, x_bars, config.beta)
                advance_seconds += time.perf_counter() - start
            for k, learner in enumerate(learners):
                if not running[k].any():
                    continue
                start = time.perf_counter()
                w_new, diverged = learner.update(w[k], rows, seeds, step, p_mats)
                fail = running[k] & failed if is_rls[k] else False
                stops = running[k] & diverged | fail
                np.copyto(w[k], w_new, where=(running[k] & ~stops)[:, None, None])
                stop_at[k, stops] = step
                by_advance[k] |= fail
                seconds[k] += time.perf_counter() - start
            start = time.perf_counter()
            for r, holdout in enumerate(chunk.holdouts):
                retention[:, :, r, step] = evaluate(w, holdout, scenario.kind)
            evaluate_seconds += time.perf_counter() - start
        adaptation = retention[..., np.arange(n_blocks) // scenario.regime_blocks, np.arange(n_blocks)]
        gap = np.zeros_like(retention)
        for r in range(len(scenario.regimes)):
            end = (r + 1) * scenario.regime_blocks
            gap[..., r, end:] = retention[..., r, end:] - retention[..., r, end - 1 : end]
    seconds += evaluate_seconds / n_learners + is_rls * advance_seconds / max(1, is_rls.sum())
    wall_ms = (seconds * 1000.0 / n_seeds).tolist()

    def report(k: int, s: int) -> RunReport:
        at = int(stop_at[k, s])
        if at < 0:
            stop = (None, None, None)
        elif by_advance[k, s]:
            stop = (None, at, "DegeneracyError")
        else:
            stop = (at, None, None)
        errors = adaptation[k, s], retention[k, s], gap[k, s]
        return RunReport(specs[k].name, digests[s], *errors, wall_ms[k], *stop)

    digests = chunk.digests
    return [[report(k, s) for k in range(n_learners)] for s in range(n_seeds)]


def run_learner(
    spec: LearnerSpec | str,
    scenario: DriftScenario,
    params: BenchParams | None = None,
) -> RunReport:
    """Feed the scenario's stream through one learner and fill the metric
    record: the one-stream chunk of ``compare_retention``.

    Divergence, and a failed precision advance (a DegeneracyError), is
    recorded in the report and never raised. Updates stop there: the
    weights keep their last values, and every later step scores them
    again, with that step's errors bit for bit.
    """
    if isinstance(spec, str):
        spec = parse_learner_spec(spec)
    return _run_chunk([spec], scenario, [scenario.seed], params or BenchParams())[0][0]


@dataclass
class PairedSummary:
    learners: list[str]
    seeds: list[int]
    stream_digests: list[str]
    win_matrix: np.ndarray            # fraction of seeds learner i beats j
    final_retention: np.ndarray       # (n_learners, n_seeds) regime-1 error at end
    final_adaptation: np.ndarray      # (n_learners, n_seeds) last-regime error at end
    mean_forgetting_gap: np.ndarray   # (n_learners,) regime-1 gap at stream end
    reports: list[list[RunReport]]    # [seed][learner]


def _win_matrix(final: np.ndarray, seeds: list[int]) -> np.ndarray:
    """The fraction of seeds on which learner i's final error, row i of
    ``final`` (n_learners, n_seeds), beats learner j's. NaN ranks worse than
    every number, inf included; an exact tie, two NaNs included, goes to the
    lower index on even seeds and to the higher on odd ones."""
    nan = np.isnan(final)
    a, b, nan_a, nan_b = final[:, None], final[None, :], nan[:, None], nan[None, :]
    same_nan = nan_a == nan_b
    beats = (nan_a < nan_b) | (same_nan & (a < b))
    tie = same_nan & ((a == b) | nan_a)
    index = np.arange(len(final))
    tie_won = (index[:, None] < index)[..., None] == (np.asarray(seeds) % 2 == 0)
    win_matrix = (beats | (tie & tie_won)).sum(axis=-1) / len(seeds)
    np.fill_diagonal(win_matrix, 0.5)
    return win_matrix


def compare_retention(
    scenario: DriftScenario,
    learner_specs: list[str],
    n_seeds: int,
    params: BenchParams | None = None,
) -> PairedSummary:
    """Run every learner on identical per-seed streams and pair the results.

    Wins are counted on end-of-stream retention error for the first
    regime (``_win_matrix``).
    """
    # the summary compares learners pairwise
    if len(learner_specs) < 2:
        raise ConfigError(f"at least two learners required, got {len(learner_specs)}")
    n_seeds = checked_count(n_seeds, "n_seeds", 1)
    specs = [parse_learner_spec(s) for s in learner_specs]
    params = params or BenchParams()
    seeds = [scenario.seed + i for i in range(n_seeds)]
    # the fewest chunks that fit, as even as can be: 15 seeds of which 11
    # fit run as 8 + 7
    size = max(1, _CHUNK_BYTES // _stream_bytes(scenario, _widest_window(specs, params)))
    n_chunks = -(-n_seeds // size)
    bounds = [-(-c * n_seeds // n_chunks) for c in range(n_chunks + 1)]
    all_reports: list[list[RunReport]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        all_reports += _run_chunk(specs, scenario, seeds[lo:hi], params)
    by_learner = list(zip(*all_reports))
    final_ret = np.array([[r.retention_error[0, -1] for r in runs] for runs in by_learner])
    final_adapt = np.array([[r.adaptation_error[-1] for r in runs] for runs in by_learner])
    final_gap = np.array([[r.forgetting_gap[0, -1] for r in runs] for runs in by_learner])
    return PairedSummary(
        learners=[s.name for s in specs],
        seeds=seeds,
        stream_digests=[reports[0].stream_digest for reports in all_reports],
        win_matrix=_win_matrix(final_ret, seeds),
        final_retention=final_ret,
        final_adaptation=final_adapt,
        mean_forgetting_gap=final_gap.mean(axis=1),
        reports=all_reports,
    )
