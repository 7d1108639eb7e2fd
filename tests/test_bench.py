import numpy as np
import pytest

from rlsol.bench import (
    CLASSIFICATION,
    REGRESSION,
    BenchParams,
    DriftScenario,
    Regime,
    build_scenario,
    compare_retention,
    evaluate,
    generate_stream,
    parse_learner_spec,
    run_learner,
)
from rlsol.errors import ConfigError, InputError
from rlsol.rls import RlsConfig, batch_solve


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
        assert np.max(np.abs(w - scenario.regimes[0].weight)) <= 1e-6

    def test_deterministic(self):
        a = generate_stream(_tiny_scenario())
        b = generate_stream(_tiny_scenario())
        assert a.digest == b.digest
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.x, bb.x)
            assert np.array_equal(ba.y, bb.y)

    def test_orthogonal_regimes_have_disjoint_optima(self):
        scenario = _tiny_scenario()
        stream = generate_stream(scenario)
        w1 = scenario.regimes[0].weight
        w2 = scenario.regimes[1].weight
        own = evaluate(w2, stream.holdouts[1], REGRESSION)
        cross = evaluate(w1, stream.holdouts[1], REGRESSION)
        assert cross >= 10 * own

    def test_classification_stream_shape(self):
        scenario = _tiny_scenario(kind=CLASSIFICATION, output_dim=3, noise_sigma=0.5)
        stream = generate_stream(scenario)
        assert stream.blocks[0].y.shape == (4, 3)
        assert np.all(stream.blocks[0].y.sum(axis=1) == 1.0)

    def test_regime_shape_validated(self):
        with pytest.raises(ConfigError):
            DriftScenario(
                kind=REGRESSION,
                input_dim=4,
                output_dim=1,
                regimes=[Regime(np.ones((2, 4)), 5)],
                block_size=2,
                noise_sigma=0.0,
                seed=0,
            )


class TestRunLearner:
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
        summary = compare_retention(
            scenario, ["plain_bgd", "exact_rls"], 3, BenchParams(), keep_reports=True
        )
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
        with pytest.raises(InputError):
            compare_retention(_tiny_scenario(), ["plain_bgd"], 2)


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


def test_too_many_orthogonal_regimes_rejected():
    with pytest.raises(ConfigError):
        build_scenario(REGRESSION, 4, 3, 2, 10, 4, 0.0, 1)
