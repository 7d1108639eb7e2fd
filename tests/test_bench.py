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
from rlsol.errors import ConfigError, DegeneracyError, InputError
from rlsol.rls import RlsConfig, advance_precision, batch_solve


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


# a count of 2.5 or 2.0 used to reach numpy or range() and raise a bare
# TypeError there, or to pass unchecked
_COUNT_SETTINGS = {
    "input_dim": lambda v: RlsConfig(v, 1),
    "output_dim": lambda v: RlsConfig(2, v),
    "n_regimes": lambda v: _tiny_scenario(n_regimes=v),
    "regime_blocks": lambda v: _tiny_scenario(regime_blocks=v),
    "block_size": lambda v: _tiny_scenario(block_size=v),
    "n_seeds": lambda v: compare_retention(_tiny_scenario(), ["plain_bgd", "exact_rls"], v),
}


@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("field", list(_COUNT_SETTINGS))
def test_count_settings_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        _COUNT_SETTINGS[field](value)


class TestRunLearner:
    @pytest.mark.parametrize("learner", ["plain_bgd", "ema", "mbsgd", "rls_precond"])
    def test_weight_decay_setting_reaches_learner(self, learner):
        scenario = _tiny_scenario(regime_blocks=5)
        stream = generate_stream(scenario)
        plain = run_learner(learner, stream, scenario, BenchParams())
        decayed = run_learner(learner, stream, scenario, BenchParams(weight_decay=1.0))
        assert not np.array_equal(plain.retention_error, decayed.retention_error)

    def test_exact_rls_noiseless_convergence(self):
        scenario = _tiny_scenario(
            noise_sigma=0.0, n_regimes=1, regime_blocks=60, block_size=1
        )
        stream = generate_stream(scenario)
        params = BenchParams(rls_beta=1.0, rls_delta=1e-6)
        report = run_learner("exact_rls", stream, scenario, params)
        errs = report.adaptation_error
        p = scenario.input_dim
        assert errs[-1] <= 1e-10
        assert np.all(np.diff(errs[p:]) <= 1e-12)

    def test_frozen_ema_flat(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        report = run_learner("ema:0", stream, scenario, BenchParams())
        for row in report.retention_error:
            assert np.all(row == row[0])

    def test_identical_runs_identical_reports(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        a = run_learner("mbsgd", stream, scenario, BenchParams())
        b = run_learner("mbsgd", stream, scenario, BenchParams())
        assert np.array_equal(a.adaptation_error, b.adaptation_error)
        assert np.array_equal(a.retention_error, b.retention_error)

    def test_divergence_recorded_not_raised(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        report = run_learner("plain_bgd", stream, scenario, BenchParams(lr_bgd=10.0))
        assert report.diverged_at is not None
        assert np.isfinite(report.adaptation_error).all()

    @pytest.mark.filterwarnings("error")
    def test_learner_error_recorded_not_raised(self):
        # at this forgetting factor the precision recursion degenerates on the
        # canonical p = 16 scenario; the DegeneracyError is recorded, not raised
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        stream = generate_stream(scenario)
        report = run_learner("exact_rls", stream, scenario, BenchParams(rls_beta=1e-200))
        assert report.failure == "DegeneracyError"
        assert report.diverged_at is None
        step = report.failed_at
        assert step == 1
        # updates stop: the weights, and so the errors, are frozen from there
        frozen = report.retention_error[:, step:]
        assert np.array_equal(frozen, frozen[:, :1].repeat(frozen.shape[1], axis=1), equal_nan=True)

    # at rls_lr = 1e3 rls_precond overflows on the canonical p = 16 scenario:
    # every gradient stage reports stepped weights that are not finite as a
    # divergence, and no numpy warning comes first
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
        stream = generate_stream(scenario)
        calls = []

        def counting(*args):
            calls.append(None)
            return evaluate(*args)

        monkeypatch.setattr(bench, "evaluate", counting)
        report = run_learner(learner, stream, scenario, params)
        step = getattr(report, stop)
        assert 0 <= step < scenario.n_blocks - 1
        # one evaluate call per regime's holdout at every step up to the stop
        assert len(calls) == (step + 1) * len(scenario.regimes)
        frozen = report.retention_error[:, step:]
        assert np.array_equal(frozen, frozen[:, :1].repeat(frozen.shape[1], axis=1), equal_nan=True)
        adaptation = report.retention_error[stream.regime_of_block, np.arange(scenario.n_blocks)]
        assert np.array_equal(report.adaptation_error, adaptation, equal_nan=True)

    def test_failures_print_no_warnings(self):
        # a learner's overflow is recorded in its report and nowhere else
        scenario = build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=1)
        stream = generate_stream(scenario)
        specs = [parse_learner_spec("rls_precond"), parse_learner_spec("plain_bgd")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = bench.run_learners(
                specs, stream, scenario, BenchParams(rls_lr=1e3, lr_bgd=10.0)
            )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert reports[0].diverged_at == 18
        assert reports[1].diverged_at == 0

    def test_forgetting_gap_zero_before_regime_end(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        report = run_learner("plain_bgd", stream, scenario, BenchParams())
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

    def test_needs_two_learners(self):
        with pytest.raises(ConfigError, match="at least two learners"):
            compare_retention(_tiny_scenario(), ["plain_bgd"], 2)


def _assert_same_report(a, b):
    assert (a.learner, a.stream_digest) == (b.learner, b.stream_digest)
    for name in ("adaptation_error", "retention_error", "forgetting_gap"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.diverged_at, a.failed_at, a.failure) == (b.diverged_at, b.failed_at, b.failure)


def _canonical(seed=1):
    return build_scenario(REGRESSION, 16, 1, 2, 60, 8, 0.05, seed=seed)


ALL_KINDS = ["plain_bgd", "mbsgd", "ema:0.3", "rls_precond", "exact_rls"]


class TestSharedPrecision:
    """compare_retention runs its RLS learners step by step on one precision
    recursion; every report must equal that learner run alone."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize(
        "scenario,learners,params,stops",
        [
            (_tiny_scenario(), ALL_KINDS, BenchParams(), {}),
            (_tiny_scenario(block_size=1), ALL_KINDS, BenchParams(rls_beta=0.9), {}),
            (
                _canonical(),
                ["plain_bgd", "exact_rls", "rls_precond"],
                BenchParams(lr_bgd=10.0, rls_lr=1e3),
                {"plain_bgd": "diverged_at", "rls_precond": "diverged_at"},
            ),
            (
                _canonical(),
                ["rls_precond", "mbsgd", "exact_rls"],
                BenchParams(rls_beta=1e-200),
                {"rls_precond": "diverged_at", "exact_rls": "failed_at"},
            ),
        ],
        ids=["all-kinds", "single-rows", "diverging", "failing"],
    )
    def test_reports_equal_run_alone(self, scenario, learners, params, stops):
        summary = compare_retention(scenario, learners, 2, params)
        for seed, reports in zip(summary.seeds, summary.reports):
            per_seed = replace(scenario, seed=seed)
            stream = generate_stream(per_seed)
            for spec, report in zip(learners, reports):
                _assert_same_report(report, run_learner(spec, stream, per_seed, params))
                for stop in ("diverged_at", "failed_at"):
                    assert (getattr(report, stop) is not None) == (stops.get(spec) == stop)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("params", [BenchParams(), BenchParams(rls_lr=1e3)])
    def test_rls_order_does_not_matter(self, params):
        scenario = _canonical()
        forward = compare_retention(scenario, ["exact_rls", "rls_precond"], 2, params)
        backward = compare_retention(scenario, ["rls_precond", "exact_rls"], 2, params)
        for ahead, behind in zip(forward.reports, backward.reports):
            _assert_same_report(ahead[0], behind[1])
            _assert_same_report(ahead[1], behind[0])

    def test_one_advance_per_step(self, monkeypatch):
        scenario = _tiny_scenario()
        calls = []

        def counting(state, x_bar):
            calls.append(state.step)
            advance_precision(state, x_bar)

        monkeypatch.setattr(bench, "advance_precision", counting)
        compare_retention(scenario, ["exact_rls", "plain_bgd", "rls_precond"], 1)
        assert calls == list(range(scenario.n_blocks))

    @pytest.mark.parametrize("k", [0, 7])
    def test_failed_advance_stops_every_rls_learner(self, monkeypatch, k):
        scenario = _tiny_scenario()
        calls = []

        def failing(state, x_bar):
            calls.append(state.step)
            if state.step == k:
                raise DegeneracyError(k + 1)
            advance_precision(state, x_bar)

        monkeypatch.setattr(bench, "advance_precision", failing)
        learners = ["rls_precond", "plain_bgd", "exact_rls"]
        summary = compare_retention(scenario, learners, 1)
        precond, bgd, exact = summary.reports[0]
        for report in (precond, exact):
            assert (report.failed_at, report.failure) == (k, "DegeneracyError")
        # no advance once both RLS learners have stopped
        assert calls == list(range(k + 1))
        assert bgd.failed_at is None and bgd.diverged_at is None
        stream = generate_stream(scenario)
        _assert_same_report(bgd, run_learner("plain_bgd", stream, scenario))


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
