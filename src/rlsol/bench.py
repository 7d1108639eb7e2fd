"""Synthetic non-stationary stream benchmark.

Generates seeded piecewise-stationary regression or rotating-Gaussian
classification streams, runs the configured learners over them, and
records retention / adaptation errors and forgetting gaps with per-seed
pairing.

The seeds of a run step together: ``compare_retention`` stacks their
streams in chunks of at most ``_CHUNK_BYTES``, and every learner steps all
streams of a chunk with one numpy call per operation. At the canonical
p = 16 each call costs microseconds of overhead whatever its size, so one
call per seed would spend most of the run there. Each stream's products
and sums are those it takes alone, so its report has the same bits.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
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

# The streams of a chunk run stacked while their rows, holdouts and
# precision matrices take at most this many bytes; a larger stream runs
# alone, as a drift-wide one (p = 256, 2.8 MB) does. Canonical streams take
# 200 KB; 2 and 4 MiB ran them faster but raised peak RSS by over 1 MB.
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


def _digest_blocks(xs: np.ndarray, ys: np.ndarray) -> str:
    """sha256 over each block's input bytes, then its target bytes."""
    h = hashlib.sha256()
    for x, y in zip(xs, ys):
        h.update(x)
        h.update(y)
    return h.hexdigest()


def _draw(scenario: DriftScenario, rng: np.random.Generator, weight: np.ndarray, n: int):
    p, q = scenario.input_dim, scenario.output_dim
    if scenario.kind == REGRESSION:
        x = rng.standard_normal((n, p))
        y = x @ weight.T + scenario.noise_sigma * rng.standard_normal((n, q))
        return x, y
    labels = rng.integers(0, q, size=n)
    x = weight[labels] + scenario.noise_sigma * rng.standard_normal((n, p))
    y = np.zeros((n, q))
    y[np.arange(n), labels] = 1.0
    return x, y


def generate_stream(scenario: DriftScenario) -> Stream:
    """Deterministic stream: all randomness flows through scenario.seed.
    Each regime draws its holdout, then its blocks, each block straight
    into its rows of the stream."""
    rng = np.random.default_rng(scenario.seed)
    n, b = scenario.n_blocks, scenario.block_size
    xs = np.empty((n, b, scenario.input_dim))
    ys = np.empty((n, b, scenario.output_dim))
    regime_of_block, holdouts = [], []
    for r, weight in enumerate(scenario.regimes):
        holdouts.append(SampleBlock(*_draw(scenario, rng, weight, scenario.holdout_size)))
        for _ in range(scenario.regime_blocks):
            i = len(regime_of_block)
            xs[i], ys[i] = _draw(scenario, rng, weight, b)
            regime_of_block.append(r)
    x, y = xs.reshape(n * b, -1), ys.reshape(n * b, -1)
    return Stream(x, y, regime_of_block, _digest_blocks(xs, ys), holdouts)


def evaluate(w: np.ndarray, holdout, kind: str):
    """Mean squared error (regression) or mean softmax cross-entropy of
    ``w`` on the holdout, reduced as ``np.mean`` reduces: sum over size.

    ``w`` is (q, p) and the holdout a ``SampleBlock``, giving a float; or
    ``w`` is a stack (S, q, p) and the holdout's ``x``/``y`` stacks
    (S, m, .), giving one error per stream, each with the bits it has
    alone.
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

    ``wall_ms`` is the learner's own update and evaluation time. Streams
    that run stacked (``compare_retention``) are timed together, so each
    gets its chunk's time divided by the chunk's stream count. The RLS
    learners of a run share one precision recursion, which the run's loop
    advances once per step; its time is split evenly among the RLS
    learners, and then among the streams.
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


class _Rows(NamedTuple):
    """Input and target rows of S stacked streams: x (S, n, p), y (S, n, q)."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class _Chunk:
    """S streams of one scenario, stacked."""

    seeds: list[int]
    rows: _Rows            # every block's rows, in stream order
    holdouts: list[_Rows]  # one per regime
    digests: list[str]


def _stack(streams: Iterable[Stream], seeds: list[int]) -> _Chunk:
    """The streams of ``seeds``, drawn one at a time, copied into stacked
    arrays; a single stream's arrays are taken as views."""
    arrays, digests = [], []
    for k, stream in enumerate(streams):
        parts = [stream.x, stream.y] + [a for h in stream.holdouts for a in (h.x, h.y)]
        if len(seeds) == 1:
            arrays = [a[None] for a in parts]
        else:
            arrays = arrays or [np.empty((len(seeds), *a.shape)) for a in parts]
            for out, a in zip(arrays, parts):
                out[k] = a
        digests.append(stream.digest)
        del stream, parts  # free it before the next one is drawn
    x, y, *held = arrays
    return _Chunk(seeds, _Rows(x, y), [_Rows(*held[i : i + 2]) for i in range(0, len(held), 2)], digests)


class _Learner:
    """One learner's weights and metric record on the S streams of a chunk;
    its settings, ``window`` and ``window_delta`` for every kind, are
    checked when it is built. At step t a window learner reads the last
    ``window`` blocks, rows [max(0, t + 1 - window) b, (t + 1) b) of each
    stream, as one view, unweighted. A stream whose update diverges, or
    whose precision advance fails, is stopped: its weights keep their last
    values, its errors at that step are copied forward, and it is neither
    stepped nor evaluated again."""

    def __init__(self, spec: LearnerSpec, n_streams: int, scenario: DriftScenario, params: BenchParams):
        p, q = scenario.input_dim, scenario.output_dim
        self.spec = spec
        self.scenario_kind = scenario.kind
        self.block_size = scenario.block_size
        self.params = params
        self.w = np.zeros((n_streams, q, p))
        self.window = checked_count(params.window, "window", 1)
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
        if spec.kind == "ema":
            EmaConfig(spec.alpha)
        check_ridge(params.window_delta)
        if spec.kind == "mbsgd":
            checked_count(params.batch_size, "batch_size", 1)
        self.retention = np.zeros((n_streams, len(scenario.regimes), scenario.n_blocks))
        self.live = np.arange(n_streams)  # the streams still running
        self.stops = [(None, None, None)] * n_streams  # diverged_at, failed_at, failure
        self.seconds = 0.0

    def update(self, chunk: _Chunk, sel, step: int, p_mats: np.ndarray):
        """The stepped weights of the streams ``sel``, and where they diverged."""
        kind, w, gd, b = self.spec.kind, self.w[sel], self.gd_cfg, self.block_size
        first = max(0, step + 1 - self.window) if kind in ("plain_bgd", "mbsgd", "ema") else step
        x, y = chunk.rows.x[sel, first * b : (step + 1) * b], chunk.rows.y[sel, first * b : (step + 1) * b]
        rose = False
        if kind == "mbsgd":
            seeds = [(chunk.seeds[k] * 1_000_003 + step) % 2**63 for k in self.live]
            w_new = mbsgd_steps(w, x, y, gd, self.params.batch_size, seeds)
        elif kind in ("plain_bgd", "ema"):
            w_new, rose_at = bgd_steps(w, x, y, gd, self.params.window_delta)
            rose = rose_at >= 0
            if kind == "ema":  # ema_combine, whose weights are finite where bgd's are
                w_new = (1.0 - self.spec.alpha) * w + self.spec.alpha * w_new
        elif kind == "rls_precond":
            w_new = precond_steps(w, x, y, p_mats[sel], gd)
        else:  # exact_rls, on the block's virtual input
            w_new = rls_weights(p_mats[sel], w, x.mean(axis=1), y.mean(axis=1))
        return w_new, rose | ~np.isfinite(w_new).all(axis=(1, 2))

    def step(self, chunk: _Chunk, step: int, p_mats: np.ndarray, advance_failed: np.ndarray) -> None:
        """Update every running stream on its block and evaluate it on every
        regime's holdout. A failed advance stops an RLS learner's stream
        before its update, as the DegeneracyError it stands for."""
        start = time.perf_counter()
        live = self.live
        sel = slice(None) if live.size == len(self.w) else live
        w_new, diverged = self.update(chunk, sel, step, p_mats)
        failed = advance_failed[sel] if self.spec.kind in _RLS_KINDS else np.zeros_like(diverged)
        stopped = diverged | failed
        any_stopped = stopped.any()
        if any_stopped:
            w_new[stopped] = self.w[sel][stopped]
        self.w[sel] = w_new
        for r, holdout in enumerate(chunk.holdouts):
            held = _Rows(holdout.x[sel], holdout.y[sel])
            self.retention[sel, r, step] = evaluate(w_new, held, self.scenario_kind)
        if any_stopped:
            for k, fail in zip(live[stopped], failed[stopped]):
                self.stops[k] = (None, step, "DegeneracyError") if fail else (step, None, None)
                self.retention[k, :, step + 1 :] = self.retention[k, :, step : step + 1]
            self.live = live[~stopped]
        self.seconds += time.perf_counter() - start

    def reports(self, chunk: _Chunk, regime_of_block: np.ndarray, seconds: float) -> list[RunReport]:
        """One report per stream; ``seconds`` is the chunk's time charged
        to this learner (``RunReport``)."""
        retention = self.retention
        adaptation = retention[:, regime_of_block, np.arange(retention.shape[-1])]
        gap = np.zeros_like(retention)
        for r in range(retention.shape[1]):
            end = np.flatnonzero(regime_of_block == r)[-1]
            gap[:, r, end + 1 :] = retention[:, r, end + 1 :] - retention[:, r, end : end + 1]
        wall_ms = seconds * 1000.0 / len(chunk.digests)
        return [
            RunReport(self.spec.name, digest, adaptation[k], retention[k], gap[k], wall_ms, *self.stops[k])
            for k, digest in enumerate(chunk.digests)
        ]


def _run_chunk(
    specs: list[LearnerSpec], chunk: _Chunk, scenario: DriftScenario, params: BenchParams
) -> list[list[RunReport]]:
    """Feed the chunk's streams through every learner, all streams of a
    learner in one stacked update and evaluation per step; the reports,
    [stream][learner], are those of each stream run alone.

    The RLS learners share one precision recursion per stream: it reads
    only the block inputs, beta and delta. While any of them is running on
    any stream, this loop advances every stream's state in place once per
    step (``advance_precisions``), before the learners step, and hands them
    the streams whose advance failed. Every learner's settings are checked
    before the first update.
    """
    p, q, b = scenario.input_dim, scenario.output_dim, scenario.block_size
    config = RlsConfig(p, q, beta=params.rls_beta, delta=params.rls_delta)
    learners = [_Learner(spec, len(chunk.seeds), scenario, params) for spec in specs]
    rls = [learner for learner in learners if learner.spec.kind in _RLS_KINDS]
    p_mats = np.broadcast_to(init_state(config).p_mat, (len(chunk.seeds), p, p)).copy()
    failed = np.zeros(len(chunk.seeds), bool)
    advance_seconds = 0.0
    # a failing learner's overflow is recorded in its report; numpy's
    # warnings about it would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(scenario.n_blocks):
            if any(learner.live.size for learner in rls):
                start = time.perf_counter()
                x_bars = chunk.rows.x[:, step * b : (step + 1) * b].mean(axis=1)
                failed = advance_precisions(p_mats, x_bars, config.beta)
                advance_seconds += time.perf_counter() - start
            for learner in learners:
                if learner.live.size:
                    learner.step(chunk, step, p_mats, failed)
        regime_of_block = np.repeat(np.arange(len(scenario.regimes)), scenario.regime_blocks)
        by_learner = [
            learner.reports(
                chunk,
                regime_of_block,
                learner.seconds + (advance_seconds / len(rls) if learner in rls else 0.0),
            )
            for learner in learners
        ]
    return [list(reports) for reports in zip(*by_learner)]


def run_learner(
    spec: LearnerSpec | str,
    stream: Stream,
    scenario: DriftScenario,
    params: BenchParams | None = None,
) -> RunReport:
    """Feed the stream through one learner and fill the metric record: the
    one-stream chunk of ``compare_retention``.

    Divergence, and a failed precision advance (a DegeneracyError), is
    recorded in the report and never raised. Updates stop there: the
    weights keep their last values, so every later step repeats that
    step's errors, which are copied rather than evaluated again.
    """
    if isinstance(spec, str):
        spec = parse_learner_spec(spec)
    chunk = _stack([stream], [scenario.seed])
    return _run_chunk([spec], chunk, scenario, params or BenchParams())[0][0]


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
    digests = []
    all_reports: list[list[RunReport]] = []
    p, q, m = scenario.input_dim, scenario.output_dim, scenario.holdout_size
    stream_bytes = 8 * ((scenario.n_blocks * scenario.block_size + len(scenario.regimes) * m) * (p + q) + p * p)
    size = max(1, _CHUNK_BYTES // stream_bytes)
    for first in range(0, n_seeds, size):
        chunk_seeds = seeds[first : first + size]
        streams = (generate_stream(replace(scenario, seed=seed)) for seed in chunk_seeds)
        chunk = _stack(streams, chunk_seeds)
        all_reports += _run_chunk(specs, chunk, scenario, params)
        digests += chunk.digests
        del chunk  # free it before the next one is stacked
    by_learner = list(zip(*all_reports))
    final_ret = np.array([[r.retention_error[0, -1] for r in runs] for runs in by_learner])
    final_adapt = np.array([[r.adaptation_error[-1] for r in runs] for runs in by_learner])
    final_gap = np.array([[r.forgetting_gap[0, -1] for r in runs] for runs in by_learner])
    return PairedSummary(
        learners=[s.name for s in specs],
        seeds=seeds,
        stream_digests=digests,
        win_matrix=_win_matrix(final_ret, seeds),
        final_retention=final_ret,
        final_adaptation=final_adapt,
        mean_forgetting_gap=final_gap.mean(axis=1),
        reports=all_reports,
    )
