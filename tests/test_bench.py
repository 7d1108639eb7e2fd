import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rlsol import bench
from rlsol.bench import (
    CLASSIFICATION,
    REGRESSION,
    BenchParams,
    DriftScenario,
    build_scenario,
    compare_retention,
    evaluate,
    generate_stream,
    parse_learner_spec,
    run_learner,
)
from rlsol.cli import main
from rlsol.errors import ConfigError, InputError
from rlsol.optimizers import EmaConfig, GdConfig, bgd_update, ema_combine, mbsgd_update
from rlsol.rls import RlsConfig, SampleBlock, advance_precisions, batch_solve


def _tiny_scenario(seed=1, **kw):
    defaults = dict(
        kind=REGRESSION,
        input_dim=8,
        output_dim=1,
        n_regimes=2,
        regime_blocks=20,
        block_size=4,
        noise_sigma=0.05,
        seed=seed,
        holdout_size=64,
    )
    defaults.update(kw)
    return build_scenario(**defaults)


class TestGenerateStream:
    def test_noiseless_identifiability(self):
        scenario = _tiny_scenario(noise_sigma=0.0, n_regimes=1, regime_blocks=30)
        stream = generate_stream(scenario)
        cfg = RlsConfig(8, 1, beta=1.0, delta=1e-9)
        w = batch_solve(stream.blocks, cfg)
        assert np.max(np.abs(w - scenario.regimes[0])) <= 1e-6

    def test_deterministic(self):
        a = generate_stream(_tiny_scenario())
        b = generate_stream(_tiny_scenario())
        assert a.digest == b.digest
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.x, bb.x)
            assert np.array_equal(ba.y, bb.y)

    @pytest.mark.parametrize("kind", [REGRESSION, CLASSIFICATION])
    def test_draw_order(self, kind):
        # regime by regime: the holdout, then the regime's blocks. Only the
        # inputs are compared: a regression target goes through a matmul,
        # whose bits depend on the BLAS build.
        scenario = _tiny_scenario(
            kind=kind, output_dim=2, n_regimes=3, regime_blocks=4, block_size=3, holdout_size=5
        )
        stream = generate_stream(scenario)
        rng = np.random.default_rng(scenario.seed)
        p, q, sigma = scenario.input_dim, scenario.output_dim, scenario.noise_sigma

        def draw_x(weight, n):
            if kind == REGRESSION:
                x = rng.standard_normal((n, p))
                rng.standard_normal((n, q))  # the target noise
                return x
            labels = rng.integers(0, q, size=n)
            return weight[labels] + sigma * rng.standard_normal((n, p))

        blocks = iter(stream.blocks)
        assert len(stream.holdouts) == len(scenario.regimes)
        for holdout, weight in zip(stream.holdouts, scenario.regimes):
            assert np.array_equal(holdout.x, draw_x(weight, scenario.holdout_size))
            for _ in range(scenario.regime_blocks):
                assert np.array_equal(next(blocks).x, draw_x(weight, scenario.block_size))
        assert next(blocks, None) is None

    def test_orthogonal_regimes_have_disjoint_optima(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        w1 = scenario.regimes[0]
        w2 = scenario.regimes[1]
        own = evaluate(w2, stream.holdouts[1], REGRESSION)
        cross = evaluate(w1, stream.holdouts[1], REGRESSION)
        assert cross >= 10 * own

    def test_classification_stream_shape(self):
        scenario = _tiny_scenario(kind=CLASSIFICATION, output_dim=3, noise_sigma=0.5)
        stream = generate_stream(scenario)
        assert stream.blocks[0].y.shape == (4, 3)
        assert np.all(stream.blocks[0].y.sum(axis=1) == 1.0)

    def test_blocks_are_views_of_stream_rows(self):
        scenario = _tiny_scenario(output_dim=2, regime_blocks=3, block_size=5)
        stream = generate_stream(scenario)
        b = scenario.block_size
        assert stream.x.shape == (scenario.n_blocks * b, scenario.input_dim)
        assert stream.y.shape == (scenario.n_blocks * b, scenario.output_dim)
        for i, block in enumerate(stream.blocks):
            assert np.shares_memory(block.x, stream.x) and np.shares_memory(block.y, stream.y)
            assert np.array_equal(block.x, stream.x[i * b : (i + 1) * b])
            assert np.array_equal(block.y, stream.y[i * b : (i + 1) * b])

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_regime_rejected(self, entry):
        with pytest.raises(InputError, match="regime weight contains non-finite entries"):
            DriftScenario(
                kind=REGRESSION,
                input_dim=4,
                output_dim=1,
                regimes=[np.full((1, 4), entry)],
                regime_blocks=5,
                block_size=2,
                noise_sigma=0.0,
                seed=0,
            )

    def test_regime_shape_validated(self):
        with pytest.raises(ConfigError):
            DriftScenario(
                kind=REGRESSION,
                input_dim=4,
                output_dim=1,
                regimes=[np.ones((2, 4))],
                regime_blocks=5,
                block_size=2,
                noise_sigma=0.0,
                seed=0,
            )

    # a scenario is checked once, when it is built: drawing its streams
    # checks none of these again
    @pytest.mark.parametrize(
        "build,message",
        [
            (
                lambda: DriftScenario("sinusoid", 4, 1, [np.ones((1, 4))], 5, 2, 0.0, 0),
                "unknown scenario kind 'sinusoid'",
            ),
            (lambda: DriftScenario(REGRESSION, 4, 1, [], 5, 2, 0.0, 0), "at least one regime required"),
            (
                lambda: _tiny_scenario(kind=CLASSIFICATION, input_dim=1, output_dim=2),
                "classification scenarios need input_dim >= 2",
            ),
            (lambda: _tiny_scenario(kind="sinusoid"), "unknown scenario kind 'sinusoid'"),
        ],
        ids=["unknown-kind", "no-regimes", "classification-one-input", "build-unknown-kind"],
    )
    def test_scenario_checks(self, build, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()

    # a holdout that overflows is a bad noise setting, rejected as it is
    # drawn, whether the stream is drawn alone or in a chunk, and with no
    # numpy warning before it
    @pytest.mark.filterwarnings("error")
    def test_non_finite_holdout_rejected(self):
        message = "^noise_sigma 1e\\+308 gives non-finite holdout rows in regime 1$"
        for kind in (REGRESSION, CLASSIFICATION):
            scenario = _tiny_scenario(kind=kind, output_dim=2, noise_sigma=1e308)
            with pytest.raises(ConfigError, match=message):
                generate_stream(scenario)
            with pytest.raises(ConfigError, match=message):
                compare_retention(scenario, ["plain_bgd", "exact_rls"], 3)

    # the chunk's window view, redrawn block by block into a buffer of
    # min(2 W, n_blocks) blocks, holds the rows of the last W blocks of each
    # stream at every step, and each stream's digest is the sha256 of its
    # blocks. W = 3 wraps the 6-block buffer 11 times in 40 blocks; W = 50
    # holds every block.
    @pytest.mark.parametrize(
        "window,scenario",
        [
            (1, _tiny_scenario()),
            (3, _tiny_scenario()),
            (50, _tiny_scenario()),
            (4, _tiny_scenario(block_size=1)),
            (
                5,
                _tiny_scenario(kind=CLASSIFICATION, output_dim=3, noise_sigma=0.5, n_regimes=3, regime_blocks=7),
            ),
        ],
        ids=["one-block", "wraps", "whole-stream", "single-rows", "classes"],
    )
    def test_window_view_is_stream_rows(self, window, scenario):
        seeds = [4, 9, 2]
        streams = [generate_stream(replace(scenario, seed=seed)) for seed in seeds]
        chunk = bench._draw_chunk(scenario, seeds, window)
        b = scenario.block_size
        assert chunk.buffer.x.shape == (3, min(2 * window, scenario.n_blocks) * b, scenario.input_dim)
        for t in range(scenario.n_blocks):
            rows = chunk.advance()
            lo = max(0, t + 1 - window) * b
            for k, stream in enumerate(streams):
                assert np.array_equal(rows.x[k], stream.x[lo : (t + 1) * b]), (t, k)
                assert np.array_equal(rows.y[k], stream.y[lo : (t + 1) * b]), (t, k)
        for digest, stream in zip(chunk.digests, streams):
            blocks = hashlib.sha256()
            for block in stream.blocks:
                blocks.update(block.x)
                blocks.update(block.y)
            assert digest == stream.digest == blocks.hexdigest()


def _evaluate_oracle(w, holdout, kind):
    """``evaluate`` on one holdout, written with ``np.mean``."""
    z = holdout.x @ w.T
    if kind == REGRESSION:
        return float(np.mean((holdout.y - z) ** 2))
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    return float(-np.mean(np.sum(holdout.y * logp, axis=1)))


class TestEvaluate:
    # the holdouts of a stream, at sizes from one row up, for both kinds
    @pytest.mark.parametrize("kind", [REGRESSION, CLASSIFICATION])
    @pytest.mark.parametrize(
        "p,q,n_regimes,holdout_size",
        [(16, 1, 2, 256), (8, 3, 2, 32), (40, 2, 4, 256), (13, 2, 3, 7), (5, 1, 3, 33), (3, 1, 2, 1)],
    )
    def test_pooled_bits_match_one_call_per_holdout(self, kind, p, q, n_regimes, holdout_size):
        if kind == CLASSIFICATION and q == 1:
            q = 2  # one class would make every cross-entropy 0
        scenario = _tiny_scenario(
            kind=kind, input_dim=p, output_dim=q, n_regimes=n_regimes, regime_blocks=2,
            noise_sigma=0.5, holdout_size=holdout_size,
        )
        stream = generate_stream(scenario)
        assert len(stream.holdouts) == n_regimes
        rng = np.random.default_rng(p * q + holdout_size)
        for scale in (1e-3, 1.0, 30.0):
            w = scale * rng.standard_normal((q, p))
            for holdout in stream.holdouts:
                assert holdout.size == holdout_size
                got = evaluate(w, holdout, kind)
                assert type(got) is float
                assert got == _evaluate_oracle(w, holdout, kind)


def _run_with_window(window):
    # an RLS learner reads no window, yet its window setting is checked
    scenario = _tiny_scenario(regime_blocks=2)
    return run_learner("exact_rls", scenario, BenchParams(window=window))


# a count of 2.5 or 2.0 used to reach numpy or range() and raise a bare
# TypeError there, or to pass unchecked; a string is no count either
_COUNT_SETTINGS = {
    "input_dim": lambda v: RlsConfig(v, 1),
    "output_dim": lambda v: RlsConfig(2, v),
    "n_regimes": lambda v: _tiny_scenario(n_regimes=v),
    "regime_blocks": lambda v: _tiny_scenario(regime_blocks=v),
    "block_size": lambda v: _tiny_scenario(block_size=v),
    "n_seeds": lambda v: compare_retention(_tiny_scenario(), ["plain_bgd", "exact_rls"], v),
    "window": _run_with_window,
}


@pytest.mark.parametrize("value", [2.5, 2.0, "3"])
@pytest.mark.parametrize("field", list(_COUNT_SETTINGS))
def test_count_settings_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        _COUNT_SETTINGS[field](value)


class TestRunLearner:
    @pytest.mark.parametrize("learner", ["plain_bgd", "ema", "mbsgd", "rls_precond"])
    def test_weight_decay_setting_reaches_learner(self, learner):
        scenario = _tiny_scenario(regime_blocks=5)
        plain = run_learner(learner, scenario, BenchParams())
        decayed = run_learner(learner, scenario, BenchParams(weight_decay=1.0))
        assert not np.array_equal(plain.retention_error, decayed.retention_error)

    def test_exact_rls_noiseless_convergence(self):
        scenario = _tiny_scenario(
            noise_sigma=0.0, n_regimes=1, regime_blocks=60, block_size=1
        )
        params = BenchParams(rls_beta=1.0, rls_delta=1e-6)
        report = run_learner("exact_rls", scenario, params)
        errs = report.adaptation_error
        p = scenario.input_dim
        assert errs[-1] <= 1e-10
        assert np.all(np.diff(errs[p:]) <= 1e-12)

    def test_frozen_ema_flat(self):
        scenario = _tiny_scenario()
        report = run_learner("ema:0", scenario, BenchParams())
        for row in report.retention_error:
            assert np.all(row == row[0])

    def test_identical_runs_identical_reports(self):
        scenario = _tiny_scenario()
        a = run_learner("mbsgd", scenario, BenchParams())
        b = run_learner("mbsgd", scenario, BenchParams())
        assert np.array_equal(a.adaptation_error, b.adaptation_error)
        assert np.array_equal(a.retention_error, b.retention_error)

    def test_divergence_recorded_not_raised(self):
        scenario = _tiny_scenario()
        report = run_learner("plain_bgd", scenario, BenchParams(lr_bgd=10.0))
        assert report.diverged_at is not None
        assert np.isfinite(report.adaptation_error).all()

    @pytest.mark.filterwarnings("error")
    def test_learner_error_recorded_not_raised(self):
        # at this forgetting factor the precision recursion degenerates on the
        # canonical p = 16 scenario; the DegeneracyError is recorded, not raised
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        report = run_learner("exact_rls", scenario, BenchParams(rls_beta=1e-200))
        assert report.failure == "DegeneracyError"
        assert report.diverged_at is None
        step = report.failed_at
        assert step == 1
        # updates stop: the weights, and so the errors, are frozen from there
        frozen = report.retention_error[:, step:]
        assert np.array_equal(frozen, frozen[:, :1].repeat(frozen.shape[1], axis=1), equal_nan=True)

    # at rls_lr = 1e3 rls_precond overflows on the canonical p = 16 scenario:
    # every gradient stage reports stepped weights that are not finite as a
    # divergence, and no numpy warning comes first. The seeds run stacked,
    # and a stopped seed is neither stepped nor evaluated again: every
    # evaluate call scores the seeds still running, and no other.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "learner,params,stop",
        [
            ("rls_precond", BenchParams(rls_lr=1e3), "diverged_at"),
            ("plain_bgd", BenchParams(lr_bgd=10.0), "diverged_at"),
            ("exact_rls", BenchParams(rls_beta=1e-200), "failed_at"),
        ],
    )
    def test_stopped_learner_not_evaluated(self, monkeypatch, learner, params, stop):
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        scored = []

        def counting(w, holdout, kind):
            scored.append(len(w))
            return evaluate(w, holdout, kind)

        monkeypatch.setattr(bench, "evaluate", counting)
        summary = compare_retention(scenario, [learner, "ema:0"], 3, params)
        n_regimes = len(scenario.regimes)
        steps = []
        for reports in summary.reports:
            report, frozen_ema = reports
            step = getattr(report, stop)
            assert 0 <= step < scenario.n_blocks - 1
            steps.append(step)
            frozen = report.retention_error[:, step:]
            assert np.array_equal(frozen, frozen[:, :1].repeat(frozen.shape[1], axis=1), equal_nan=True)
            regime_of_block = np.repeat(np.arange(n_regimes), scenario.regime_blocks)
            adaptation = report.retention_error[regime_of_block, np.arange(scenario.n_blocks)]
            assert np.array_equal(report.adaptation_error, adaptation, equal_nan=True)
            assert frozen_ema.diverged_at is None and frozen_ema.failed_at is None
        # per step and regime: one call for the running seeds of each learner
        running = [sum(t <= s for s in steps) for t in range(scenario.n_blocks)]
        expected = [n for n in running if n for _ in range(n_regimes)]
        assert sorted(scored) == sorted(expected + [3] * n_regimes * scenario.n_blocks)

    def test_failures_print_no_warnings(self):
        # a learner's overflow is recorded in its report and nowhere else
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = compare_retention(
                scenario, ["rls_precond", "plain_bgd"], 1, BenchParams(rls_lr=1e3, lr_bgd=10.0)
            )
        reports = summary.reports[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert reports[0].diverged_at == 18
        assert reports[1].diverged_at == 0

    # the weights overflow on the second block: like every gradient stage's,
    # exact_rls's stepped weights that are not finite are a divergence, as
    # rls_precond's are at this delta, and no numpy warning comes first
    @pytest.mark.filterwarnings("error")
    def test_exact_rls_overflow_is_divergence(self):
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        params = BenchParams(rls_delta=1e-300)
        exact = run_learner("exact_rls", scenario, params)
        precond = run_learner("rls_precond", scenario, params)
        assert (exact.diverged_at, exact.failed_at, exact.failure) == (1, None, None)
        assert (precond.diverged_at, precond.failed_at) == (0, None)

    # the window is not held anywhere: at step t each seed's stage reads
    # its stream's rows of the last min(t + 1, window) blocks, and its
    # weights are those of the stage called on those blocks stacked again
    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("learner", ["plain_bgd", "ema:0.3", "mbsgd"])
    def test_window_learner_reads_last_blocks(self, monkeypatch, learner, window):
        scenario = _tiny_scenario(regime_blocks=4)
        params = BenchParams(window=window)
        stepped = []

        def recording(w, holdout, kind):
            stepped.append(w.copy())
            return evaluate(w, holdout, kind)

        monkeypatch.setattr(bench, "evaluate", recording)
        summary = compare_retention(scenario, [learner, learner], 3, params)
        for reports in summary.reports:
            assert all(r.diverged_at is None and r.failed_at is None for r in reports)
        # per step: each learner scores every seed on each regime's holdout
        n_regimes = len(scenario.regimes)
        stepped = stepped[:: 2 * n_regimes]
        assert len(stepped) == scenario.n_blocks > window
        spec = parse_learner_spec(learner)
        lr = {"plain_bgd": params.lr_bgd, "ema": params.ema_inner_lr, "mbsgd": params.lr_mbsgd}
        gd = GdConfig(lr[spec.kind], params.iterations, params.weight_decay)
        for k, seed in enumerate(summary.seeds):
            stream = generate_stream(replace(scenario, seed=seed))
            w = np.zeros((scenario.output_dim, scenario.input_dim))
            for t, got in enumerate(stepped):
                held = stream.blocks[max(0, t + 1 - window) : t + 1]
                rows = SampleBlock(
                    np.concatenate([block.x for block in held]),
                    np.concatenate([block.y for block in held]),
                )
                if spec.kind == "mbsgd":
                    w = mbsgd_update(w, rows, gd, params.batch_size, (seed * 1_000_003 + t) % 2**63)
                elif spec.kind == "ema":
                    w = ema_combine(w, bgd_update(w, rows, gd, params.window_delta), EmaConfig(spec.alpha))
                else:
                    w = bgd_update(w, rows, gd, params.window_delta)
                assert np.array_equal(got[k], w), (seed, t)

    def test_forgetting_gap_zero_before_regime_end(self):
        scenario = _tiny_scenario()
        report = run_learner("plain_bgd", scenario, BenchParams())
        assert np.all(report.forgetting_gap[0, :20] == 0.0)


class TestCompare:
    def test_self_comparison_even_split(self):
        scenario = _tiny_scenario()
        summary = compare_retention(
            scenario, ["plain_bgd", "plain_bgd"], 10, BenchParams()
        )
        assert summary.win_matrix[0, 1] == pytest.approx(0.5)
        assert summary.win_matrix[1, 0] == pytest.approx(0.5)
        gap_diff = summary.final_retention[0] - summary.final_retention[1]
        assert np.all(gap_diff == 0.0)

    def test_pairing_digests_consistent(self):
        scenario = _tiny_scenario()
        summary = compare_retention(scenario, ["plain_bgd", "exact_rls"], 3, BenchParams())
        for s_idx, digest in enumerate(summary.stream_digests):
            for report in summary.reports[s_idx]:
                assert report.stream_digest == digest

    def test_slow_vs_fast_ema_contrast(self):
        scenario = _tiny_scenario(regime_blocks=30)
        summary = compare_retention(
            scenario, ["ema:0.01", "ema:0.99"], 8, BenchParams()
        )
        slow_gap = summary.mean_forgetting_gap[0]
        fast_gap = summary.mean_forgetting_gap[1]
        assert slow_gap < fast_gap
        slow_adapt = summary.final_adaptation[0].mean()
        fast_adapt = summary.final_adaptation[1].mean()
        assert slow_adapt > fast_adapt

    # rls_precond overflows at this rate: its final error is huge on three
    # seeds and NaN on seed 3, which must count as a loss for it rather
    # than for neither learner
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nan_final_error_ranks_worst(self):
        scenario = build_scenario(CLASSIFICATION, 16, 3, 2, 30, 8, 0.5, seed=1)
        params = BenchParams(rls_lr=1e4)
        summary = compare_retention(scenario, ["rls_precond", "plain_bgd"], 4, params)
        assert np.isnan(summary.final_retention[0, 2])
        assert not np.isnan(summary.final_retention[1]).any()
        assert summary.win_matrix[1, 0] == 1.0 and summary.win_matrix[0, 1] == 0.0
        # two NaNs tie: seed 3 is odd, so it goes to the higher index
        summary = compare_retention(scenario, ["rls_precond", "rls_precond"], 4, params)
        assert summary.win_matrix[0, 1] == 0.5 and summary.win_matrix[1, 0] == 0.5

    # every pairing of these final errors, all at even seeds, then all at
    # odd ones, so that ties do not cancel out
    @pytest.mark.parametrize("n_learners", [2, 3])
    @pytest.mark.parametrize("first_seed", [0, 1])
    def test_win_matrix_matches_pairwise_loop(self, n_learners, first_seed):
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]
        final = np.array(list(itertools.product(values, repeat=n_learners))).T.copy()
        seeds = [first_seed + 2 * i for i in range(final.shape[1])]
        assert np.array_equal(bench._win_matrix(final, seeds), _win_matrix_loop(final, seeds))

    def test_needs_two_learners(self):
        with pytest.raises(ConfigError, match="at least two learners"):
            compare_retention(_tiny_scenario(), ["plain_bgd"], 2)


def _win_matrix_loop(final, seeds):
    """The win count one pair and one seed at a time: the reference
    ``bench._win_matrix`` must equal."""
    n_l = len(final)
    wins = np.zeros((n_l, n_l))
    for i in range(n_l):
        for j in range(n_l):
            if i == j:
                continue
            for s_idx, seed in enumerate(seeds):
                a, b = final[i, s_idx], final[j, s_idx]
                if math.isnan(a) or math.isnan(b):
                    # NaN ranks worse than every number, inf included
                    a, b = math.isnan(a), math.isnan(b)
                if a < b:
                    wins[i, j] += 1
                elif a == b:
                    # exact tie: even seeds go to the lower index
                    winner = min(i, j) if seed % 2 == 0 else max(i, j)
                    wins[i, j] += 1 if winner == i else 0
    win_matrix = wins / len(seeds)
    np.fill_diagonal(win_matrix, 0.5)
    return win_matrix


def _assert_same_report(a, b):
    assert (a.learner, a.stream_digest) == (b.learner, b.stream_digest)
    for name in ("adaptation_error", "retention_error", "forgetting_gap"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.diverged_at, a.failed_at, a.failure) == (b.diverged_at, b.failed_at, b.failure)


def _stream_bytes(scenario):
    """The bytes one stream holds in a chunk whose learners read windows of
    the default ``window`` W: its holdouts, a buffer of the rows of
    min(2 W, n_blocks) blocks, and P."""
    p, q, b = scenario.input_dim, scenario.output_dim, scenario.block_size
    buffer_blocks = min(2 * BenchParams().window, scenario.n_blocks)
    rows = len(scenario.regimes) * scenario.holdout_size + buffer_blocks * b
    return 8 * (rows * (p + q) + p * p)


def _canonical(seed=1):
    return build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=seed)


ALL_KINDS = ["plain_bgd", "mbsgd", "ema:0.3", "rls_precond", "exact_rls"]


def _stop(report):
    """How the report's learner stopped: "diverged_at", "failed_at" or None."""
    if report.diverged_at is not None:
        return "diverged_at"
    return None if report.failed_at is None else "failed_at"


class TestSharedPrecision:
    """compare_retention runs its seeds stacked, in chunks, and its RLS
    learners step by step on one precision recursion per seed; every
    report must equal that learner run alone on that seed."""

    # the last two cases run six seeds in chunks of three (at most four
    # fit), where some seeds stop while the others run on. At these small
    # forgetting factors P grows fast: rls_precond diverges on every seed,
    # and exact_rls fails where a seed's precision advance degenerates: on
    # the tiny regression stream at rls_beta = 0.02 on some seeds only, and
    # on the classification stream at rls_beta = 0.015 on every seed. At
    # lr_bgd = 0.0231 plain_bgd diverges on some regression seeds only.
    # Which seeds stop, and when, depends on the BLAS kernels, so the stops
    # are read from each seed run alone. ``stopping`` names each learner
    # that stops, how (diverged_at or failed_at), and whether on "every"
    # seed or on "some" seeds but not all; every other learner stops on none.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize(
        "scenario,learners,params,n_seeds,stopping",
        [
            (_tiny_scenario(), ALL_KINDS, BenchParams(), 2, {}),
            (_tiny_scenario(block_size=1), ALL_KINDS, BenchParams(rls_beta=0.9), 2, {}),
            (
                _canonical(),
                ["plain_bgd", "exact_rls", "rls_precond"],
                BenchParams(lr_bgd=10.0, rls_lr=1e3),
                2,
                {"plain_bgd": ("diverged_at", "every"), "rls_precond": ("diverged_at", "every")},
            ),
            (
                _canonical(),
                ["rls_precond", "mbsgd", "exact_rls"],
                BenchParams(rls_beta=1e-200),
                2,
                {"rls_precond": ("diverged_at", "every"), "exact_rls": ("failed_at", "every")},
            ),
            (
                _tiny_scenario(),
                ALL_KINDS,
                BenchParams(rls_beta=0.02, lr_bgd=0.0231),
                6,
                {
                    "rls_precond": ("diverged_at", "every"),
                    "plain_bgd": ("diverged_at", "some"),
                    "exact_rls": ("failed_at", "some"),
                },
            ),
            (
                _tiny_scenario(kind=CLASSIFICATION, output_dim=3, noise_sigma=0.5),
                ALL_KINDS,
                BenchParams(rls_beta=0.015),
                6,
                {"rls_precond": ("diverged_at", "every"), "exact_rls": ("failed_at", "every")},
            ),
        ],
        ids=["all-kinds", "single-rows", "diverging", "failing", "some-stop", "classes-stop"],
    )
    def test_reports_equal_run_alone(self, monkeypatch, scenario, learners, params, n_seeds, stopping):
        monkeypatch.setattr(bench, "_CHUNK_BYTES", 4 * _stream_bytes(scenario))
        summary = compare_retention(scenario, learners, n_seeds, params)
        stops = {spec: set() for spec in learners}  # how each seed run alone stopped
        for seed, reports in zip(summary.seeds, summary.reports):
            per_seed = replace(scenario, seed=seed)
            for spec, report in zip(learners, reports):
                alone = run_learner(spec, per_seed, params)
                _assert_same_report(report, alone)
                stops[spec].add(_stop(alone))
        for spec, seen in stops.items():
            stop, seeds = stopping.get(spec, (None, "every"))
            assert seen == ({stop} if seeds == "every" else {stop, None}), spec

    # chunks of one seed each write the same report bytes, on a run where
    # some seeds stop and the others run on
    def test_one_seed_chunks_same_report_bytes(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "input_dim = 8\nregime_blocks = 20\nblock_size = 4\nholdout_size = 64\nn_seeds = 6\n"
            "rls_beta = 0.02\nlr_bgd = 0.0231\nlearners = plain_bgd,ema:0.3,mbsgd,rls_precond,exact_rls\n"
        )
        for out in ("stacked", "alone"):
            if out == "alone":
                monkeypatch.setattr(bench, "_CHUNK_BYTES", 1)
            assert main(["bench", "run", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        for name in ("report.csv", "report.json"):
            stacked, alone = (tmp_path / out / name for out in ("stacked", "alone"))
            assert stacked.read_bytes() == alone.read_bytes(), name
        # which seeds stop depends on the BLAS kernels; some must stop and
        # some run on
        summaries = json.loads((tmp_path / "alone" / "report.json").read_text())["summaries"]
        assert 0 < summaries["plain_bgd"]["n_diverged"] < 6
        assert 0 < summaries["exact_rls"].get("n_failed", 0) < 6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("params", [BenchParams(), BenchParams(rls_lr=1e3)])
    def test_rls_order_does_not_matter(self, params):
        scenario = _canonical()
        forward = compare_retention(scenario, ["exact_rls", "rls_precond"], 2, params)
        backward = compare_retention(scenario, ["rls_precond", "exact_rls"], 2, params)
        for ahead, behind in zip(forward.reports, backward.reports):
            _assert_same_report(ahead[0], behind[1])
            _assert_same_report(ahead[1], behind[0])

    # three seeds in chunks of two and one: one stacked advance per step
    # and chunk
    def test_one_advance_per_step(self, monkeypatch):
        scenario = _tiny_scenario()
        calls = []

        def counting(p_mats, x_bars, beta):
            calls.append(len(p_mats))
            return advance_precisions(p_mats, x_bars, beta)

        monkeypatch.setattr(bench, "advance_precisions", counting)
        monkeypatch.setattr(bench, "_CHUNK_BYTES", 2 * _stream_bytes(scenario))
        compare_retention(scenario, ["exact_rls", "plain_bgd", "rls_precond"], 3)
        assert calls == [2] * scenario.n_blocks + [1] * scenario.n_blocks

    # 15 canonical seeds, of which 11 fit in a chunk, run as 8 + 7, and the
    # arrays each chunk holds fit in its bytes
    def test_canonical_chunks_balanced(self, monkeypatch):
        scenario, p = _canonical(), 16
        calls, held, draw_chunk = [], [], bench._draw_chunk

        def counting(p_mats, x_bars, beta):
            calls.append(len(p_mats))
            return advance_precisions(p_mats, x_bars, beta)

        def drawing(scenario, seeds, window):
            chunk = draw_chunk(scenario, seeds, window)
            arrays = [*chunk.buffer, *(array for holdout in chunk.holdouts for array in holdout)]
            held.append((len(seeds), sum(array.nbytes for array in arrays) + len(seeds) * 8 * p * p))
            return chunk

        assert bench._CHUNK_BYTES // _stream_bytes(scenario) == 11
        monkeypatch.setattr(bench, "advance_precisions", counting)
        monkeypatch.setattr(bench, "_draw_chunk", drawing)
        compare_retention(scenario, ["rls_precond", "plain_bgd"], 15)
        assert calls == [8] * scenario.n_blocks + [7] * scenario.n_blocks
        assert [n for n, _ in held] == [8, 7]
        for n, nbytes in held:
            assert nbytes == n * _stream_bytes(scenario) <= bench._CHUNK_BYTES

    # the advance fails at step k on the second seed, then on all three: it
    # stops that seed's RLS learners only, and no advance runs once every
    # RLS learner of the chunk has stopped
    @pytest.mark.parametrize("k", [0, 7])
    def test_failed_advance_stops_every_rls_learner(self, monkeypatch, k):
        scenario = _tiny_scenario()
        learners = ["rls_precond", "plain_bgd", "exact_rls"]
        for failing in ([1], [0, 1, 2]):
            calls = []

            def failing_at_k(p_mats, x_bars, beta):
                calls.append(len(p_mats))
                failed = advance_precisions(p_mats, x_bars, beta)
                if len(calls) == k + 1:
                    failed[failing] = True
                return failed

            monkeypatch.setattr(bench, "advance_precisions", failing_at_k)
            summary = compare_retention(scenario, learners, 3)
            assert calls == [3] * (k + 1 if len(failing) == 3 else scenario.n_blocks)
            for s_idx, (seed, reports) in enumerate(zip(summary.seeds, summary.reports)):
                per_seed = replace(scenario, seed=seed)
                precond, bgd, exact = reports
                for report in (precond, exact):
                    if s_idx in failing:
                        assert (report.diverged_at, report.failed_at, report.failure) == (None, k, "DegeneracyError")
                    else:
                        _assert_same_report(report, run_learner(report.learner, per_seed))
                _assert_same_report(bgd, run_learner("plain_bgd", per_seed))

    # each stream of a chunk gets its learner's chunk time over the chunk's
    # stream count; the shared advance's time is split evenly among the RLS
    # learners first, and no other learner is charged for it
    def test_advance_time_split_among_rls_learners(self, monkeypatch):
        scenario = _tiny_scenario()

        def slow(p_mats, x_bars, beta):
            time.sleep(0.005)
            return advance_precisions(p_mats, x_bars, beta)

        monkeypatch.setattr(bench, "advance_precisions", slow)
        summary = compare_retention(scenario, ["rls_precond", "exact_rls", "plain_bgd"], 2)
        share = 5.0 * scenario.n_blocks / 2 / 2
        for learner in range(3):
            walls = {reports[learner].wall_ms for reports in summary.reports}
            assert len(walls) == 1
            (wall,) = walls
            assert wall >= share if learner < 2 else wall < share


class TestLearnerSpec:
    def test_ema_with_alpha(self):
        spec = parse_learner_spec("ema:0.25")
        assert spec.kind == "ema"
        assert spec.alpha == 0.25

    def test_unknown_learner(self):
        with pytest.raises(ConfigError):
            parse_learner_spec("adam")

    @pytest.mark.parametrize("text", ["emax", "ema_fast", "emax:0.3"])
    def test_ema_prefix_is_not_ema(self, text):
        with pytest.raises(ConfigError, match=text):
            parse_learner_spec(text)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            parse_learner_spec("ema:nope")


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_noise_sigma_range(sigma):
    with pytest.raises(ConfigError, match=str(sigma)):
        _tiny_scenario(noise_sigma=sigma)


def test_too_many_orthogonal_regimes_rejected():
    with pytest.raises(ConfigError):
        build_scenario(REGRESSION, 4, 3, 2, 10, 4, 0.0, 1)
