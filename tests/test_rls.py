import numpy as np
import pytest

from rlsol.errors import ConfigError, DegeneracyError, DimensionError, InputError
from rlsol.linalg import spd_solve
from rlsol.optimizers import GdConfig, SlidingWindow, bgd_update
from rlsol.rls import (
    RlsConfig,
    RlsState,
    SampleBlock,
    accumulate_correlations,
    batch_solve,
    block_virtual_input,
    gain_vector,
    init_state,
    lse_cost,
    rls_block_step,
    rls_step,
    update_precision,
)


def _random_block(rng, b, p, q):
    return SampleBlock(x=rng.standard_normal((b, p)), y=rng.standard_normal((b, q)))


class TestConfig:
    def test_beta_range(self):
        with pytest.raises(ConfigError):
            RlsConfig(2, 1, beta=0.0)
        with pytest.raises(ConfigError):
            RlsConfig(2, 1, beta=1.5)

    def test_delta_positive(self):
        with pytest.raises(ConfigError):
            RlsConfig(2, 1, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_delta_finite(self, delta):
        with pytest.raises(ConfigError, match=str(delta)):
            RlsConfig(2, 1, delta=delta)


class TestSampleBlock:
    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            SampleBlock(x=np.ones((2, 3)), y=np.ones((3, 1)))

    def test_negative_weights(self):
        with pytest.raises(InputError):
            SampleBlock(x=np.ones((2, 3)), y=np.ones((2, 1)), weights=[1.0, -1.0])

    def test_weighted_rows_scaling(self):
        block = SampleBlock(x=np.ones((2, 2)), y=np.ones((2, 1)), weights=[4.0, 9.0])
        bx, by = block.weighted_rows()
        assert np.allclose(bx[:, 0], [2.0, 3.0])
        assert np.allclose(by[:, 0], [2.0, 3.0])


class TestInitState:
    def test_half_delta(self):
        state = init_state(RlsConfig(2, 1, delta=0.5))
        assert np.array_equal(state.p_mat, 2.0 * np.eye(2))
        assert state.step == 0

    def test_unit(self):
        assert np.array_equal(init_state(RlsConfig(1, 1)).p_mat, np.eye(1))

    def test_small_delta(self):
        state = init_state(RlsConfig(3, 1, delta=5e-4))
        assert np.allclose(state.p_mat, 2000.0 * np.eye(3))


class TestBatchSolve:
    def test_single_block(self):
        blocks = [SampleBlock(x=np.array([[1.0, 0.0]]), y=np.array([[1.0]]))]
        w = batch_solve(blocks, RlsConfig(2, 1))
        assert np.allclose(w, [[0.5, 0.0]])

    def test_zero_targets(self):
        rng = np.random.default_rng(0)
        blocks = [SampleBlock(x=rng.standard_normal((3, 4)), y=np.zeros((3, 2)))]
        w = batch_solve(blocks, RlsConfig(4, 2))
        assert np.array_equal(w, np.zeros((2, 4)))

    def test_minimizes_cost(self):
        rng = np.random.default_rng(1)
        cfg = RlsConfig(4, 2, beta=0.95, delta=0.5)
        blocks = [_random_block(rng, 1, 4, 2) for _ in range(50)]
        w_hat = batch_solve(blocks, cfg)
        base = lse_cost(w_hat, blocks, cfg)
        for _ in range(100):
            d = rng.standard_normal(w_hat.shape)
            d *= 1e-3 / np.linalg.norm(d)
            assert lse_cost(w_hat + d, blocks, cfg) > base

    def test_beta_one_is_ridge(self):
        rng = np.random.default_rng(2)
        cfg = RlsConfig(5, 2, beta=1.0, delta=0.7)
        blocks = [_random_block(rng, 4, 5, 2) for _ in range(6)]
        w = batch_solve(blocks, cfg)
        x = np.vstack([b.x for b in blocks])
        y = np.vstack([b.y for b in blocks])
        ref = spd_solve(x.T @ x + cfg.delta * np.eye(5), x.T @ y).T
        assert np.allclose(w, ref, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            batch_solve([SampleBlock(x=np.ones((1, 3)), y=np.ones((1, 1)))], RlsConfig(2, 1))


class TestUpdatePrecision:
    def test_hand_example(self):
        state = update_precision(init_state(RlsConfig(2, 1)), np.array([1.0, 0.0]))
        assert np.allclose(state.p_mat, np.diag([0.5, 1.0]))
        assert state.step == 1

    def test_zero_input_noop(self):
        state = init_state(RlsConfig(3, 1))
        new = update_precision(state, np.zeros(3))
        assert np.array_equal(new.p_mat, state.p_mat)

    def test_shadow_phi_oracle(self):
        rng = np.random.default_rng(3)
        cfg = RlsConfig(6, 1, beta=0.97, delta=0.4)
        state = init_state(cfg)
        phi = cfg.delta * np.eye(6)
        for _ in range(500):
            x = rng.standard_normal(6)
            state = update_precision(state, x)
            phi = cfg.beta * phi + np.outer(x, x)
            assert np.linalg.norm(state.p_mat @ phi - np.eye(6)) <= 1e-8

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        state = init_state(RlsConfig(5, 1, beta=0.95, delta=0.2))
        for _ in range(2000):
            state = update_precision(state, rng.standard_normal(5))
        assert np.array_equal(state.p_mat, state.p_mat.T)

    @pytest.mark.parametrize("beta", [0.97, 1.0])
    # 512, 544 (ragged edge tiles) and 1024 take the tiled symmetrization,
    # 520 the one pass
    @pytest.mark.parametrize("p", [16, 256, 512, 520, 544, 1024])
    def test_matches_five_temporary_expression(self, p, beta):
        rng = np.random.default_rng(p)
        state = init_state(RlsConfig(p, 1, beta=beta, delta=0.5))
        for _ in range(60):
            x = rng.standard_normal(p)
            p_old = state.p_mat.copy()
            px = p_old @ x
            gain = px / (beta + x @ px)
            ref = (p_old - np.outer(px, gain)) / beta
            ref = (ref + ref.T) / 2.0
            new = update_precision(state, x)
            assert np.array_equal(new.p_mat, ref)
            assert np.array_equal(state.p_mat, p_old)
            state = new

    def test_degeneracy_detected(self):
        # an indefinite precision matrix loses a positive diagonal entry
        bad = RlsState(
            p_mat=np.array([[1.0, 2.0], [2.0, 1.0]]), step=3, config=RlsConfig(2, 1)
        )
        with pytest.raises(DegeneracyError) as exc:
            update_precision(bad, np.array([1.0, 0.0]))
        assert exc.value.step == 4

    def test_non_finite_input(self):
        with pytest.raises(InputError):
            update_precision(init_state(RlsConfig(2, 1)), np.array([np.inf, 0.0]))


class TestGainVector:
    def test_hand_example(self):
        k = gain_vector(init_state(RlsConfig(2, 1)), np.array([1.0, 0.0]))
        assert np.allclose(k, [0.5, 0.0])

    def test_zero_input(self):
        assert np.array_equal(gain_vector(init_state(RlsConfig(3, 1)), np.zeros(3)), np.zeros(3))

    def test_gain_identity(self):
        rng = np.random.default_rng(5)
        state = init_state(RlsConfig(4, 1, beta=0.93, delta=0.8))
        for _ in range(200):
            x = rng.standard_normal(4)
            k = gain_vector(state, x)
            state = update_precision(state, x)
            assert np.max(np.abs(k - x @ state.p_mat)) <= 1e-10


class TestRlsStep:
    def test_hand_example(self):
        state = init_state(RlsConfig(2, 1))
        w, _ = rls_step(state, np.zeros((1, 2)), np.array([1.0, 0.0]), np.array([1.0]))
        assert np.allclose(w, [[0.5, 0.0]])

    def test_zero_residual(self):
        rng = np.random.default_rng(6)
        state = init_state(RlsConfig(3, 2))
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal(3)
        w_new, new_state = rls_step(state, w, x, w @ x)
        assert np.allclose(w_new, w, atol=1e-12)
        assert new_state.step == 1

    @pytest.mark.parametrize("beta", [0.9, 1.0])
    def test_matches_batch_over_stream(self, beta):
        rng = np.random.default_rng(7)
        cfg = RlsConfig(10, 2, beta=beta, delta=0.5)
        state = init_state(cfg)
        w = np.zeros((2, 10))
        blocks = []
        for _ in range(200):
            block = _random_block(rng, 1, 10, 2)
            blocks.append(block)
            w, state = rls_step(state, w, block.x[0], block.y[0])
        ref = batch_solve(blocks, cfg)
        assert np.linalg.norm(w - ref) <= 1e-8 * (1 + np.linalg.norm(ref))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_result_raises(self):
        state = init_state(RlsConfig(2, 1, delta=1e-3))
        with pytest.raises(InputError, match="weights contains non-finite entries"):
            rls_step(state, [[1e308, 0.0]], [1.0, 0.0], [-1e308])


class TestVirtualInput:
    def test_means(self):
        block = SampleBlock(x=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([[1.0], [0.0]]))
        x_bar, y_bar = block_virtual_input(block)
        assert np.allclose(x_bar, [0.5, 0.5])
        assert np.allclose(y_bar, [0.5])

    def test_singleton(self):
        block = SampleBlock(x=np.array([[2.0, 3.0]]), y=np.array([[4.0]]))
        x_bar, y_bar = block_virtual_input(block)
        assert np.array_equal(x_bar, [2.0, 3.0])
        assert np.array_equal(y_bar, [4.0])

    def test_bound_holds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            b = int(rng.integers(2, 16))
            block = _random_block(rng, b, 5, 2)
            w = rng.standard_normal((2, 5))
            x_bar, y_bar = block_virtual_input(block)
            lhs = np.sum((y_bar - w @ x_bar) ** 2)
            rhs = np.sum((block.y - block.x @ w.T) ** 2) / b
            assert lhs <= rhs + 1e-12


class TestBlockStep:
    def test_singleton_equals_rls_step(self):
        rng = np.random.default_rng(9)
        block = _random_block(rng, 1, 4, 2)
        w0 = rng.standard_normal((2, 4))
        state = init_state(RlsConfig(4, 2, beta=0.95))
        w_a, s_a = rls_block_step(state.clone(), w0, block)
        w_b, s_b = rls_step(state.clone(), w0, block.x[0], block.y[0])
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(s_a.p_mat, s_b.p_mat)

    def test_identical_rows_equal_rls_step(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(4)
        y = rng.standard_normal(2)
        block = SampleBlock(x=np.tile(x, (5, 1)), y=np.tile(y, (5, 1)))
        w0 = rng.standard_normal((2, 4))
        state = init_state(RlsConfig(4, 2))
        w_a, _ = rls_block_step(state.clone(), w0, block)
        w_b, _ = rls_step(state.clone(), w0, x, y)
        assert np.allclose(w_a, w_b, atol=1e-12)


def _bgd_on_blocks(w, blocks, cfg):
    window = SlidingWindow(len(blocks), blocks)
    return bgd_update(w, window, GdConfig(0.1), cfg)


@pytest.mark.parametrize("cost_user", [lse_cost, _bgd_on_blocks], ids=["lse_cost", "bgd_update"])
def test_lse_cost_requires_uniform_block_size(cost_user):
    cfg = RlsConfig(2, 1)
    blocks = [
        SampleBlock(x=np.ones((2, 2)), y=np.ones((2, 1))),
        SampleBlock(x=np.ones((3, 2)), y=np.ones((3, 1))),
    ]
    with pytest.raises(InputError, match="uniform block size"):
        cost_user(np.zeros((1, 2)), blocks, cfg)


def test_correlations_symmetric():
    rng = np.random.default_rng(11)
    cfg = RlsConfig(6, 1, beta=0.9, delta=0.3)
    blocks = [_random_block(rng, 3, 6, 1) for _ in range(10)]
    corr = accumulate_correlations(blocks, cfg)
    assert np.max(np.abs(corr.phi_mat - corr.phi_mat.T)) <= 1e-10
