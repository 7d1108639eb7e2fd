from dataclasses import replace

import numpy as np
import pytest

from rlsol.bench import run_learner
from rlsol.cli import DEFAULT_CONFIG, _params_from_config, _scenario_from_config, parse_config
from rlsol.errors import ConfigError, DimensionError, DivergenceError, InputError
from rlsol.optimizers import (
    EmaConfig,
    GdConfig,
    bgd_update,
    ema_combine,
    mbsgd_update,
    precond_gd_iterate,
    precond_update_stage,
)
from rlsol.rls import (
    RlsConfig,
    SampleBlock,
    accumulate_correlations,
    batch_solve,
    block_virtual_input,
    init_state,
    lse_cost,
    rls_step,
    update_precision,
)


def _random_block(rng, b, p, q):
    return SampleBlock(x=rng.standard_normal((b, p)), y=rng.standard_normal((b, q)))


def _window(blocks):
    """The window stages' argument: the blocks' rows as one block, oldest
    first."""
    return SampleBlock(
        np.concatenate([block.x for block in blocks]),
        np.concatenate([block.y for block in blocks]),
    )


def _bgd_reference(w, blocks, config, rls_cfg):
    """BGD with the divergence check on ``lse_cost`` before and after each step."""
    z, phi = accumulate_correlations(blocks, rls_cfg)
    w = np.array(w, dtype=float)
    cost_prev = lse_cost(w, blocks, rls_cfg)
    rising = 0
    for it in range(config.iterations):
        w = w - config.learning_rate * (w @ phi - z)
        cost = lse_cost(w, blocks, rls_cfg)
        rising = rising + 1 if cost > cost_prev else 0
        if rising >= 3:
            raise DivergenceError(it)
        cost_prev = cost
    return w


def _bgd_stacking_oracle(w, blocks, config, rls_cfg):
    """``bgd_update`` as it was before the window kept its rows: every call
    checks the blocks, scales each block's rows by its decay and stacks
    them again."""
    for block in blocks:
        if block.x.shape[1] != rls_cfg.input_dim or block.y.shape[1] != rls_cfg.output_dim:
            raise DimensionError("block dims do not match config")
    n = len(blocks)
    xs, ys = [], []
    for i, block in enumerate(blocks, start=1):
        decay = rls_cfg.beta ** ((n - i) / 2.0)
        xs.append(block.x * decay)
        ys.append(block.y * decay)
    x_all = np.vstack(xs)
    y_all = np.vstack(ys)
    phi = x_all.T @ x_all + rls_cfg.delta * rls_cfg.beta**n * np.eye(rls_cfg.input_dim)
    z = y_all.T @ x_all
    phi = (phi + phi.T) / 2.0
    w = np.asarray(w, dtype=float)
    b = blocks[0].size
    ridge = rls_cfg.delta * rls_cfg.beta**n

    def cost(w):
        resid = y_all - x_all @ w.T
        return float((np.sum(resid**2) + ridge * np.sum(w**2)) / b)

    cost_prev = cost(w)
    rising = 0
    for it in range(config.iterations):
        w = w - config.learning_rate * (w @ phi - z)
        cost_now = cost(w)
        rising = rising + 1 if cost_now > cost_prev else 0
        if rising >= 3:
            raise DivergenceError(it)
        cost_prev = cost_now
    return w


def _outcome(update, *args):
    try:
        return update(*args)
    except DivergenceError as err:
        return err.iteration


class TestBgd:
    def test_stationary_point(self):
        rng = np.random.default_rng(0)
        cfg = RlsConfig(4, 1, delta=0.5)
        blocks = [_random_block(rng, 3, 4, 1) for _ in range(4)]
        w = batch_solve(blocks, cfg)
        w_new = bgd_update(w, _window(blocks), GdConfig(1e-3, iterations=1), cfg.delta)
        assert np.max(np.abs(w_new - w)) <= 1e-10

    def test_one_step_hand_example(self):
        window = SampleBlock(x=np.array([[1.0, 0.0]]), y=np.array([[1.0]]))
        w = bgd_update(np.zeros((1, 2)), window, GdConfig(0.1, iterations=1), 1.0)
        assert np.allclose(w, [[0.1, 0.0]])

    def test_weight_decay_in_step(self):
        # one step W - eta (W Phi - Z + lambda W), with Phi and Z the window
        # correlations
        rng = np.random.default_rng(11)
        cfg = RlsConfig(3, 2, delta=0.5)
        blocks = [_random_block(rng, 4, 3, 2) for _ in range(3)]
        window = _window(blocks)
        z, phi = accumulate_correlations(blocks, cfg)
        w0 = rng.standard_normal((2, 3))
        eta, lam = 1e-2, 10.0
        got = bgd_update(w0, window, GdConfig(eta, iterations=1, weight_decay=lam), cfg.delta)
        want = w0 - eta * (w0 @ phi - z + lam * w0)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        plain = bgd_update(w0, window, GdConfig(eta, iterations=1), cfg.delta)
        assert not np.allclose(got, plain)

    def test_converges_to_batch(self):
        rng = np.random.default_rng(1)
        cfg = RlsConfig(5, 1, delta=0.5)
        blocks = [_random_block(rng, 4, 5, 1) for _ in range(3)]
        corr_scale = sum(b.size for b in blocks)
        w = bgd_update(
            np.zeros((1, 5)), _window(blocks), GdConfig(0.5 / corr_scale, iterations=10000), cfg.delta
        )
        ref = batch_solve(blocks, cfg)
        assert np.max(np.abs(w - ref)) <= 1e-6

    def test_divergence_error(self):
        rng = np.random.default_rng(2)
        window = _random_block(rng, 8, 3, 1)
        with pytest.raises(DivergenceError):
            bgd_update(np.zeros((1, 3)), window, GdConfig(10.0, iterations=20), 1.0)

    # a NaN cost never counts as rising; the check of the weights it returns
    # raises DivergenceError, and no numpy warning comes first
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_raises(self):
        rng = np.random.default_rng(0)
        window = _random_block(rng, 4, 3, 1)
        with pytest.raises(DivergenceError) as caught:
            bgd_update(np.zeros((1, 3)), window, GdConfig(1e300), 1.0)
        assert str(caught.value) == "bgd_update: weights not finite after iteration 4"
        assert (caught.value.iteration, caught.value.layer, caught.value.step) == (4, None, None)

    def test_monotone_cost_below_stability_bound(self):
        rng = np.random.default_rng(3)
        cfg = RlsConfig(4, 1, delta=0.2)
        blocks = [_random_block(rng, 5, 4, 1) for _ in range(3)]
        window = _window(blocks)
        phi = accumulate_correlations(blocks, cfg)[1]
        eta = 0.9 / np.linalg.eigvalsh(phi).max()
        w = np.zeros((1, 4))
        prev = lse_cost(w, blocks, cfg)
        for _ in range(50):
            w = bgd_update(w, window, GdConfig(eta, iterations=1), cfg.delta)
            cost = lse_cost(w, blocks, cfg)
            assert cost <= prev + 1e-12
            prev = cost

    # blocks have plain rows and the window is unweighted; the ids keep their
    # "1.0" part from when the window took a forgetting factor beta, and
    # their "unweighted" part from when blocks could carry row weights
    @pytest.mark.parametrize("q", [1, 3], ids=["1.0-unweighted-1", "1.0-unweighted-3"])
    @pytest.mark.parametrize("rate", [0.5, 1.9, 2.2, 4.0])
    def test_matches_lse_cost_reference(self, q, rate):
        # rate is in units of 2 / lambda_max(Phi): above 1 the iteration diverges
        rng = np.random.default_rng(12)
        cfg = RlsConfig(4, q, delta=0.3)
        for trial in range(5):
            # from one to five pushes into a window of four blocks
            pushed = [_random_block(rng, 3, 4, q) for _ in range(int(rng.integers(1, 6)))]
            blocks = pushed[-4:]
            phi = accumulate_correlations(blocks, cfg)[1]
            eta = rate * 2.0 / np.linalg.eigvalsh(phi).max()
            gd = GdConfig(eta, iterations=int(rng.integers(1, 12)))
            w0 = rng.standard_normal((q, 4))
            got = _outcome(bgd_update, w0, _window(blocks), gd, cfg.delta)
            want = _outcome(_bgd_reference, w0, blocks, gd, cfg)
            assert type(got) is type(want), (trial, got, want)
            assert np.array_equal(got, want), (trial, got, want)

    @pytest.mark.parametrize(
        "pushes",
        [3, 9],
        ids=["1.0-unweighted-partly_filled", "1.0-unweighted-after_evictions"],
    )
    def test_bits_match_stacking_oracle(self, pushes):
        # the window's rows as one block give the weights, and the iteration
        # of any DivergenceError, of stacking the last five blocks again on
        # every call
        rng = np.random.default_rng(pushes * 10)
        cfg = RlsConfig(6, 2, delta=1e-3)
        pushed = []
        outcomes = []
        for _ in range(pushes):
            pushed.append(_random_block(rng, 4, 6, 2))
            blocks = pushed[-5:]
            phi = accumulate_correlations(blocks, cfg)[1]
            for rate in (0.5, 1.9, 2.5):
                # above 1 (in units of 2 / lambda_max) the iteration diverges
                gd = GdConfig(rate * 2.0 / np.linalg.eigvalsh(phi).max(), iterations=8)
                w0 = rng.standard_normal((2, 6))
                got = _outcome(bgd_update, w0, _window(blocks), gd, cfg.delta)
                want = _outcome(_bgd_stacking_oracle, w0, blocks, gd, cfg)
                assert type(got) is type(want)
                assert np.array_equal(got, want)
                outcomes.append(type(got))
        assert int in outcomes and np.ndarray in outcomes  # both kinds of outcome met

    def test_mixed_block_sizes_match_numpy_oracle(self):
        # blocks of 2 and 3 rows share the window; the step and the ridge
        # read the stacked rows alone
        rng = np.random.default_rng(14)
        blocks = [_random_block(rng, b, 4, 2) for b in (2, 3, 2, 3)]
        w0 = rng.standard_normal((2, 4))
        delta, gd = 0.3, GdConfig(1e-2, iterations=6, weight_decay=0.25)
        got = bgd_update(w0, _window(blocks), gd, delta)
        x = np.vstack([block.x for block in blocks])
        y = np.vstack([block.y for block in blocks])
        phi = x.T @ x + (delta + gd.weight_decay) * np.eye(4)
        phi = (phi + phi.T) / 2.0
        want = w0
        for _ in range(gd.iterations):
            want = want - gd.learning_rate * (want @ phi - y.T @ x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_ridge(self, delta):
        window = SampleBlock(x=np.ones((2, 2)), y=np.ones((2, 1)))
        with pytest.raises(ConfigError, match="regularizer must be positive and finite"):
            bgd_update(np.zeros((1, 2)), window, GdConfig(0.1), delta)

    def test_noiseless_canonical_no_false_divergence(self):
        # an exact fit drives the window cost towards 0, where a cost formed
        # by subtracting large terms reads rounding noise as a rise
        cfg = parse_config(DEFAULT_CONFIG)
        scenario = replace(_scenario_from_config(cfg), noise_sigma=0.0)
        params = _params_from_config(cfg)
        for seed in range(scenario.seed, scenario.seed + 4):
            per_seed = replace(scenario, seed=seed)
            report = run_learner("plain_bgd", per_seed, params)
            assert report.diverged_at is None, seed


class TestMbsgd:
    def test_full_batch_matches_bgd(self):
        rng = np.random.default_rng(4)
        window = _window([_random_block(rng, 4, 3, 1) for _ in range(2)])
        total = 8
        w0 = rng.standard_normal((1, 3))
        w_sgd = mbsgd_update(w0, window, GdConfig(0.05, iterations=7), total, seed=9)
        # full-batch gradient equals the window gradient divided by the
        # sample count when the regularizer is negligible
        w_bgd = bgd_update(w0, window, GdConfig(0.05 / total, iterations=7), 1e-12)
        assert np.allclose(w_sgd, w_bgd, atol=1e-9)

    def test_decay_only_shrinkage(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal((6, 3))
        window = SampleBlock(x=x, y=x @ w.T)
        out = mbsgd_update(w, window, GdConfig(0.1, iterations=1, weight_decay=0.5), 6, seed=0)
        assert np.allclose(out, (1 - 0.1 * 0.5) * w, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        window = _window([_random_block(rng, 5, 4, 2) for _ in range(2)])
        w0 = rng.standard_normal((2, 4))
        a = mbsgd_update(w0, window, GdConfig(0.02, iterations=11), 3, seed=42)
        b = mbsgd_update(w0, window, GdConfig(0.02, iterations=11), 3, seed=42)
        assert np.array_equal(a, b)

    def test_batch_size_above_rows_held(self):
        # early on the window may hold fewer rows than the batch size
        rng = np.random.default_rng(7)
        window = _random_block(rng, 2, 2, 1)
        w0 = rng.standard_normal((1, 2))
        gd = GdConfig(0.1, iterations=5)
        clamped = mbsgd_update(w0, window, gd, 3, seed=0)
        assert np.array_equal(clamped, mbsgd_update(w0, window, gd, 2, seed=0))

    # a float batch size used to reach the row slicing and fail there with a
    # bare TypeError
    @pytest.mark.parametrize("batch_size", [2.5, 2.0, "3"])
    def test_batch_size_must_be_integer(self, batch_size):
        window = SampleBlock(x=np.ones((4, 2)), y=np.ones((4, 1)))
        with pytest.raises(ConfigError, match="batch_size must be an integer"):
            mbsgd_update(np.zeros((1, 2)), window, GdConfig(0.1), batch_size, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_raises(self):
        rng = np.random.default_rng(0)
        window = _random_block(rng, 4, 3, 1)
        with pytest.raises(DivergenceError) as caught:
            mbsgd_update(np.zeros((1, 3)), window, GdConfig(1e300), 2, seed=0)
        assert str(caught.value) == "mbsgd_update: weights not finite after iteration 4"
        assert (caught.value.iteration, caught.value.layer, caught.value.step) == (4, None, None)


# q = 2, p = 3 throughout: each stage checks the caller's weights at entry.
# The window stages used to broadcast weights a row short and let numpy
# raise a bare ValueError for the other shapes.
@pytest.mark.parametrize(
    "shape", [(3, 3), (1, 3), (2, 4), (2, 2)], ids=["row+1", "row-1", "column+1", "column-1"]
)
@pytest.mark.parametrize(
    "stage", ["bgd_update", "mbsgd_update", "ema_combine", "precond_update_stage", "rls_step"]
)
def test_weights_off_by_one_raise(stage, shape):
    rng = np.random.default_rng(13)
    block = _random_block(rng, 4, 3, 2)
    state = init_state(RlsConfig(3, 2))
    w = rng.standard_normal(shape)
    run = {
        "bgd_update": lambda: bgd_update(w, block, GdConfig(0.1), 0.5),
        "mbsgd_update": lambda: mbsgd_update(w, block, GdConfig(0.1), 2, seed=0),
        "ema_combine": lambda: ema_combine(np.zeros((2, 3)), w, EmaConfig(0.5)),
        "precond_update_stage": lambda: precond_update_stage(w, block, state, GdConfig(0.1)),
        "rls_step": lambda: rls_step(state, w, block.x[0], block.y[0]),
    }[stage]
    with pytest.raises(DimensionError):
        run()


class TestPrecondIterate:
    def test_identity_preconditioner(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((2, 4))
        g = rng.standard_normal((2, 4))
        assert np.allclose(precond_gd_iterate(w, g, np.eye(4), 0.3), w - 0.3 * g)

    def test_zero_gradient(self):
        w = np.ones((1, 2))
        assert np.array_equal(precond_gd_iterate(w, np.zeros((1, 2)), np.eye(2), 0.5), w)

    def test_hand_example(self):
        out = precond_gd_iterate(
            np.zeros((1, 2)), np.array([[1.0, 1.0]]), np.diag([2.0, 1.0]), 0.1
        )
        assert np.allclose(out, [[-0.2, -0.1]])

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            precond_gd_iterate(np.ones((1, 2)), np.ones((2, 2)), np.eye(2), 0.1)
        with pytest.raises(DimensionError):
            precond_gd_iterate(np.ones((1, 2)), np.ones((1, 2)), np.eye(3), 0.1)


def _precond_stage_reference(w, block, state, config):
    """The update stage as one ``precond_gd_iterate`` call per iteration."""
    state = update_precision(state, block_virtual_input(block)[0])
    w = np.array(w, dtype=float)
    bx, by = block.x, block.y
    for _ in range(config.iterations):
        grad = (w @ bx.T - by.T) @ bx / block.size
        if config.weight_decay:
            grad = grad + config.weight_decay * w
        w = precond_gd_iterate(w, grad, state.p_mat, config.learning_rate)
    return w, state


class TestPrecondStage:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("b,p,q", [(1, 16, 1), (4, 8, 3), (3, 64, 2)])
    def test_matches_iterate_loop(self, b, p, q, weight_decay):
        rng = np.random.default_rng(b * p * q)
        cfg = RlsConfig(p, q, beta=0.97, delta=0.5)
        gd = GdConfig(0.3, iterations=5, weight_decay=weight_decay)
        state = init_state(cfg)
        w = rng.standard_normal((q, p))
        for _ in range(20):
            block = _random_block(rng, b, p, q)
            w_ref, state_ref = _precond_stage_reference(w, block, state, gd)
            w, state = precond_update_stage(w, block, state, gd)
            assert np.array_equal(w, w_ref)
            assert np.array_equal(state.p_mat, state_ref.p_mat)

    # the reference stops at the overflowing gradient with InputError; the
    # stage checks only the weights it returns, after its last iteration
    @pytest.mark.parametrize("scale,eta", [(1.0, 1e307), (1e100, 1e100)])
    def test_overflow_message(self, scale, eta):
        rng = np.random.default_rng(0)
        block = SampleBlock(x=scale * rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
        gd = GdConfig(eta, iterations=5)
        args = (np.ones((1, 3)), block, init_state(RlsConfig(3, 1)), gd)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError):
                _precond_stage_reference(*args)
            with pytest.raises(DivergenceError) as got:
                precond_update_stage(*args)
        assert str(got.value) == "precond_update_stage: weights not finite after iteration 4 at precision step 1"
        assert (got.value.iteration, got.value.layer, got.value.step) == (4, None, 1)

    # one iteration overflows on its only step; nothing later would catch it,
    # and no numpy warning comes first
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_raises(self):
        rng = np.random.default_rng(0)
        block = SampleBlock(x=10.0 * rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
        with pytest.raises(DivergenceError, match="after iteration 0 at precision step 1$"):
            precond_update_stage(
                np.ones((1, 3)), block, init_state(RlsConfig(3, 1)), GdConfig(1e308, iterations=1)
            )

    @pytest.mark.parametrize("w_shape,q", [((1, 4), 1), ((1, 3), 2)], ids=["inputs", "targets"])
    def test_width_mismatch(self, w_shape, q):
        rng = np.random.default_rng(0)
        block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, q)))
        with pytest.raises(DimensionError):
            precond_update_stage(
                np.ones(w_shape), block, init_state(RlsConfig(3, 1)), GdConfig(0.1)
            )

    def test_reproduces_rls_step(self):
        # b=1, lambda=0, one iteration at eta=1 from the exact previous
        # batch solution is the exact recursion
        rng = np.random.default_rng(8)
        cfg = RlsConfig(4, 1, beta=0.95, delta=0.5)
        state = init_state(cfg)
        w = np.zeros((1, 4))
        blocks = []
        for _ in range(10):
            block = _random_block(rng, 1, 4, 1)
            blocks.append(block)
            w, state = rls_step(state, w, block.x[0], block.y[0])
        next_block = _random_block(rng, 1, 4, 1)
        w_ref, _ = rls_step(state.clone(), w, next_block.x[0], next_block.y[0])
        w_stage, _ = precond_update_stage(
            w, next_block, state.clone(), GdConfig(1.0, iterations=1)
        )
        assert np.allclose(w_stage, w_ref, atol=1e-12)

    def test_zero_residual_decay_only(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal((4, 3))
        block = SampleBlock(x=x, y=x @ w.T)
        cfg = GdConfig(0.1, iterations=1, weight_decay=0.3)
        w_new, state = precond_update_stage(w, block, init_state(RlsConfig(3, 2)), cfg)
        assert np.allclose(w_new, w @ (np.eye(3) - 0.1 * 0.3 * state.p_mat), atol=1e-12)

    def test_virtual_fixed_point(self):
        # identical rows make the real block gradient vanish exactly at the
        # virtual-residual-zero point
        rng = np.random.default_rng(10)
        x = rng.standard_normal(3)
        w = rng.standard_normal((1, 3))
        block = SampleBlock(x=np.tile(x, (4, 1)), y=np.tile(w @ x, (4, 1)))
        w_new, state = precond_update_stage(
            w, block, init_state(RlsConfig(3, 1)), GdConfig(0.5, iterations=5)
        )
        assert np.max(np.abs(w_new - w)) <= 1e-12
        assert state.step == 1


class TestEma:
    def test_alpha_one(self):
        a, b = np.zeros((1, 1)), np.full((1, 1), 2.0)
        assert np.array_equal(ema_combine(a, b, EmaConfig(1.0)), b)

    def test_alpha_zero(self):
        a, b = np.zeros((1, 1)), np.full((1, 1), 2.0)
        assert np.array_equal(ema_combine(a, b, EmaConfig(0.0)), a)

    def test_midpoint(self):
        a, b = np.zeros((1, 1)), np.full((1, 1), 2.0)
        assert np.array_equal(ema_combine(a, b, EmaConfig(0.5)), np.full((1, 1), 1.0))

    def test_interpolation_bounds(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        for alpha in (0.1, 0.37, 0.8):
            out = ema_combine(a, b, EmaConfig(alpha))
            assert (out >= np.minimum(a, b) - 1e-15).all()
            assert (out <= np.maximum(a, b) + 1e-15).all()

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            EmaConfig(1.5)


def test_gd_config_validation():
    with pytest.raises(ConfigError):
        GdConfig(-0.1)
    with pytest.raises(ConfigError):
        GdConfig(0.1, iterations=0)
    with pytest.raises(ConfigError):
        GdConfig(0.1, weight_decay=-1.0)


# a float count either fails later inside range() with a bare TypeError, or
# is taken as it stands
@pytest.mark.parametrize("value", [2.5, 2.0, "3"])
@pytest.mark.parametrize(
    "build, name",
    [(lambda n: GdConfig(0.1, iterations=n), "iterations")],
    ids=["iterations"],
)
def test_counts_must_be_integers(build, name, value):
    with pytest.raises(ConfigError, match=name):
        build(value)
    assert type(getattr(build(np.int64(3)), name)) is int


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_gd_config_rejects_non_finite(value):
    with pytest.raises(ConfigError, match=str(value)):
        GdConfig(value)
    with pytest.raises(ConfigError, match=str(value)):
        GdConfig(0.1, weight_decay=value)
