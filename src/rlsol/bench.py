"""Synthetic non-stationary stream benchmark.

Generates seeded piecewise-stationary regression or rotating-Gaussian
classification streams, runs the configured learners over them, and
records retention / adaptation errors and forgetting gaps with per-seed
pairing.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DivergenceError, RlsolError
from .linalg import as_array
from .optimizers import (
    EmaConfig,
    GdConfig,
    bgd_update,
    check_ridge,
    ema_combine,
    mbsgd_update,
    precond_apply,
)
from .rls import (
    RlsConfig,
    RlsState,
    SampleBlock,
    advance_precision,
    block_virtual_input,
    checked_count,
    init_state,
    rls_apply,
)

REGRESSION = "piecewise_linear_regression"
CLASSIFICATION = "rotating_gaussian_classification"
_KINDS = (REGRESSION, CLASSIFICATION)

LEARNER_KINDS = ("plain_bgd", "mbsgd", "ema", "rls_precond", "exact_rls")
# the learners that advance the precision recursion
_RLS_KINDS = ("rls_precond", "exact_rls")


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
    blocks: list[SampleBlock]
    regime_of_block: list[int]
    digest: str
    holdouts: list[SampleBlock]  # one per regime, each drawn just before its regime's blocks


def _digest_blocks(blocks: list[SampleBlock]) -> str:
    h = hashlib.sha256()
    for block in blocks:
        h.update(block.x.tobytes())
        h.update(block.y.tobytes())
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
    blocks = [SampleBlock(x, y) for x, y in zip(xs, ys)]
    x, y = xs.reshape(n * b, -1), ys.reshape(n * b, -1)
    return Stream(x, y, blocks, regime_of_block, _digest_blocks(blocks), holdouts)


def evaluate(w: np.ndarray, holdout: SampleBlock, kind: str) -> float:
    """Mean squared error (regression) or mean softmax cross-entropy of
    ``w`` on the holdout, reduced as ``np.mean`` reduces: sum over size."""
    z = holdout.x @ w.T
    if kind == REGRESSION:
        loss = (holdout.y - z) ** 2
    else:
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        # negated row by row: rounding is sign-symmetric, so the sum is
        # exactly the negated sum of the rows
        loss = -(holdout.y * logp).sum(axis=1)
    return float(loss.sum() / loss.size)


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

    ``wall_ms`` is the learner's own update and evaluation time. The RLS
    learners of a run share one precision recursion, which ``run_learners``'
    loop advances once per step; it adds that advance's time to the first
    RLS learner still running at that step.
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
    """One learner's weights and metric record on one stream; its settings,
    ``window`` and ``window_delta`` for every kind, are checked when it is
    built. At step t a window learner reads the last ``window`` blocks,
    rows [max(0, t + 1 - window) b, (t + 1) b) of the stream, as one
    ``SampleBlock`` view, unweighted."""

    def __init__(
        self, spec: LearnerSpec, stream: Stream, scenario: DriftScenario, params: BenchParams
    ):
        p, q = scenario.input_dim, scenario.output_dim
        self.spec = spec
        self.stream = stream
        self.scenario_kind = scenario.kind
        self.params = params
        self.w = np.zeros((q, p))
        self.window = checked_count(params.window, "window", 1)
        self.block_size = scenario.block_size
        self.stream_seed = scenario.seed
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
        self.ema_cfg = EmaConfig(spec.alpha) if spec.kind == "ema" else None
        check_ridge(params.window_delta)
        if spec.kind == "mbsgd":
            checked_count(params.batch_size, "batch_size", 1)
        self.retention = np.zeros((len(scenario.regimes), len(stream.blocks)))
        self.seconds = 0.0
        self.diverged_at = self.failed_at = self.failure = None

    @property
    def running(self) -> bool:
        return self.diverged_at is None and self.failed_at is None

    def update(self, block: SampleBlock, step: int, precision: RlsState | RlsolError) -> None:
        # precision: the shared state, which run_learners has advanced on
        # this block for an RLS learner, or the error that advance raised
        kind = self.spec.kind
        if kind in ("plain_bgd", "mbsgd", "ema"):
            b = self.block_size
            rows = slice(max(0, step + 1 - self.window) * b, (step + 1) * b)
            window = SampleBlock(self.stream.x[rows], self.stream.y[rows])
        if kind == "plain_bgd":
            self.w = bgd_update(self.w, window, self.gd_cfg, self.params.window_delta)
        elif kind == "mbsgd":
            seed = (self.stream_seed * 1_000_003 + step) % 2**63
            self.w = mbsgd_update(self.w, window, self.gd_cfg, self.params.batch_size, seed)
        elif kind == "ema":
            w_new = bgd_update(self.w, window, self.gd_cfg, self.params.window_delta)
            self.w = ema_combine(self.w, w_new, self.ema_cfg)
        elif isinstance(precision, RlsolError):
            raise precision
        elif kind == "rls_precond":
            self.w = precond_apply(self.w, block, precision, self.gd_cfg)
        else:  # exact_rls
            x_bar, y_bar = block_virtual_input(block)
            self.w = rls_apply(precision, self.w, x_bar, y_bar)

    def step(self, block: SampleBlock, step: int, precision: RlsState | RlsolError) -> None:
        """Update on one block and evaluate on every regime's holdout; a
        recorded divergence or failure stops the learner (see
        ``run_learner``)."""
        start = time.perf_counter()
        try:
            self.update(block, step, precision)
        except DivergenceError:
            self.diverged_at = step
        except ConfigError:
            raise
        except RlsolError as err:
            self.failed_at, self.failure = step, type(err).__name__
        for r, holdout in enumerate(self.stream.holdouts):
            self.retention[r, step] = evaluate(self.w, holdout, self.scenario_kind)
        if not self.running:
            self.retention[:, step + 1 :] = self.retention[:, step : step + 1]
        self.seconds += time.perf_counter() - start

    def report(self) -> RunReport:
        stream, retention = self.stream, self.retention
        n_regimes, n = retention.shape
        regime_of_block = np.asarray(stream.regime_of_block)
        adaptation = retention[regime_of_block, np.arange(n)]
        gap = np.zeros_like(retention)
        for r in range(n_regimes):
            end = np.flatnonzero(regime_of_block == r)[-1]
            gap[r, end + 1 :] = retention[r, end + 1 :] - retention[r, end]
        return RunReport(
            learner=self.spec.name,
            stream_digest=stream.digest,
            adaptation_error=adaptation,
            retention_error=retention,
            forgetting_gap=gap,
            wall_ms=self.seconds * 1000.0,
            diverged_at=self.diverged_at,
            failed_at=self.failed_at,
            failure=self.failure,
        )


def run_learners(
    specs: list[LearnerSpec],
    stream: Stream,
    scenario: DriftScenario,
    params: BenchParams,
) -> list[RunReport]:
    """Feed the stream through every learner; each report is exactly what
    ``run_learner`` gives for that learner alone.

    The RLS learners run together, one block at a time, on one precision
    state: its recursion reads only the block inputs, beta and delta. While
    any of them is running, this loop advances the state in place once per
    step, before they step, and adds that time to the first running one's
    ``wall_ms``. A failed advance is handed to each of them as its update's
    error, so it stops them all at that step, as it would each alone. Any
    other learner runs through the stream on its own: it shares nothing,
    and stepping every learner together block by block was slower on 28 of
    40 alternating pairs of ten canonical streams, by a median 4% (2 vCPU,
    one BLAS thread). Every learner's settings are checked before the
    first update.
    """
    p, q = scenario.input_dim, scenario.output_dim
    state = init_state(RlsConfig(p, q, beta=params.rls_beta, delta=params.rls_delta))
    learners = [_Learner(spec, stream, scenario, params) for spec in specs]
    rls = [learner for learner in learners if learner.spec.kind in _RLS_KINDS]
    groups = [rls] + [[learner] for learner in learners if learner.spec.kind not in _RLS_KINDS]
    # a failing learner's overflow is recorded in its report; numpy's
    # warnings about it would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups:
            for step, block in enumerate(stream.blocks):
                running = [learner for learner in group if learner.running]
                if not running:
                    break
                precision: RlsState | RlsolError = state
                if group is rls:
                    start = time.perf_counter()
                    try:
                        advance_precision(state, block_virtual_input(block)[0])
                    except RlsolError as err:
                        precision = err
                    running[0].seconds += time.perf_counter() - start
                for learner in running:
                    learner.step(block, step, precision)
        return [learner.report() for learner in learners]


def run_learner(
    spec: LearnerSpec | str,
    stream: Stream,
    scenario: DriftScenario,
    params: BenchParams | None = None,
) -> RunReport:
    """Feed the stream through one learner and fill the metric record.

    Divergence, and any package error other than ConfigError that an update
    raises, is recorded in the report and never raised. Updates stop there:
    the weights keep their last values, so every later step repeats that
    step's errors, which are copied rather than evaluated again.
    """
    if isinstance(spec, str):
        spec = parse_learner_spec(spec)
    return run_learners([spec], stream, scenario, params or BenchParams())[0]


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


def compare_retention(
    scenario: DriftScenario,
    learner_specs: list[str],
    n_seeds: int,
    params: BenchParams | None = None,
) -> PairedSummary:
    """Run every learner on identical per-seed streams and pair the results.

    Wins are counted on end-of-stream retention error for the first
    regime, where NaN ranks worse than every number; exact ties, two NaNs
    included, break on seed parity.
    """
    # the summary compares learners pairwise
    if len(learner_specs) < 2:
        raise ConfigError(f"at least two learners required, got {len(learner_specs)}")
    n_seeds = checked_count(n_seeds, "n_seeds", 1)
    specs = [parse_learner_spec(s) for s in learner_specs]
    params = params or BenchParams()
    n_l = len(specs)
    seeds = [scenario.seed + i for i in range(n_seeds)]
    final_ret = np.zeros((n_l, n_seeds))
    final_adapt = np.zeros((n_l, n_seeds))
    final_gap = np.zeros((n_l, n_seeds))
    digests = []
    all_reports: list[list[RunReport]] = []
    for s_idx, seed in enumerate(seeds):
        per_seed = replace(scenario, seed=seed)
        stream = generate_stream(per_seed)
        seed_reports = run_learners(specs, stream, per_seed, params)
        digests.append(stream.digest)
        del stream  # free this seed's stream before the next one is drawn
        all_reports.append(seed_reports)
        for l_idx, report in enumerate(seed_reports):
            final_ret[l_idx, s_idx] = report.retention_error[0, -1]
            final_adapt[l_idx, s_idx] = report.adaptation_error[-1]
            final_gap[l_idx, s_idx] = report.forgetting_gap[0, -1]
    wins = np.zeros((n_l, n_l))
    for i in range(n_l):
        for j in range(n_l):
            if i == j:
                continue
            for s_idx, seed in enumerate(seeds):
                a, b = final_ret[i, s_idx], final_ret[j, s_idx]
                if math.isnan(a) or math.isnan(b):
                    # NaN ranks worse than every number, inf included
                    a, b = math.isnan(a), math.isnan(b)
                if a < b:
                    wins[i, j] += 1
                elif a == b:
                    # exact tie: even seeds go to the lower index
                    winner = min(i, j) if seed % 2 == 0 else max(i, j)
                    wins[i, j] += 1 if winner == i else 0
    win_matrix = wins / n_seeds
    np.fill_diagonal(win_matrix, 0.5)
    return PairedSummary(
        learners=[s.name for s in specs],
        seeds=seeds,
        stream_digests=digests,
        win_matrix=win_matrix,
        final_retention=final_ret,
        final_adaptation=final_adapt,
        mean_forgetting_gap=final_gap.mean(axis=1),
        reports=all_reports,
    )
