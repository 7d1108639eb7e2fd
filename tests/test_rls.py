import warnings

import numpy as np
import pytest

from rlsol.errors import ConfigError, DegeneracyError, DimensionError, DivergenceError, InputError
from rlsol.linalg import spd_solve
from rlsol.rls import (
    RlsConfig,
    RlsState,
    SampleBlock,
    accumulate_correlations,
    advance_precision,
    advance_precisions,
    batch_solve,
    block_virtual_input,
    gain_vector,
    init_state,
    lse_cost,
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
        # 272 takes the strip update
        for p in (6, 272):
            rng = np.random.default_rng(3)
            cfg = RlsConfig(p, 1, beta=0.97, delta=0.4)
            state = init_state(cfg)
            phi = cfg.delta * np.eye(p)
            for _ in range(500):
                x = rng.standard_normal(p)
                state = update_precision(state, x)
                phi = cfg.beta * phi + np.outer(x, x)
                assert np.linalg.norm(state.p_mat @ phi - np.eye(p)) <= 1e-8

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        state = init_state(RlsConfig(5, 1, beta=0.95, delta=0.2))
        for _ in range(2000):
            state = update_precision(state, rng.standard_normal(5))
        assert np.array_equal(state.p_mat, state.p_mat.T)

    @pytest.mark.parametrize("beta", [0.97, 1.0])
    # up to 256 the update keeps the five-temporary bits; above, it runs in
    # strips (520: a ragged last strip) and agrees to rounding
    @pytest.mark.parametrize("p", [16, 256, 257, 512, 520, 1024])
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
            if p <= 256:
                assert np.array_equal(new.p_mat, ref)
            else:
                assert np.array_equal(new.p_mat, new.p_mat.T)
                assert np.linalg.norm(new.p_mat - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(state.p_mat, p_old)
            state = new

    @pytest.mark.parametrize("p", [16, 256, 257])
    def test_advance_writes_own_buffer(self, p):
        rng = np.random.default_rng(p)
        state = init_state(RlsConfig(p, 1, beta=0.97, delta=0.5))
        for step in range(1, 4):
            buffer = state.p_mat
            advance_precision(state, rng.standard_normal(p))
            assert np.shares_memory(state.p_mat, buffer)
            assert state.step == step

    @pytest.mark.parametrize("beta", [0.97, 1.0])
    @pytest.mark.parametrize("p", [16, 256, 257, 512, 520, 1024])
    def test_update_is_advance_on_clone(self, p, beta):
        rng = np.random.default_rng(p)
        state = init_state(RlsConfig(p, 1, beta=beta, delta=0.5))
        for _ in range(5):
            x = rng.standard_normal(p)
            advanced = state.clone()
            advance_precision(advanced, x)
            new = update_precision(state, x)
            assert np.array_equal(new.p_mat, advanced.p_mat)
            assert new.step == advanced.step
            state = new

    # a stack of states advances with the bits each has alone, in both
    # forms; along e0 the fourth state's denominator is negative and the
    # fifth overflows: both are marked failed at the first step, as
    # advance_precision raises for them, and neither touches the others
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [16, 256, 257, 520])
    def test_stacked_advance_is_advance_per_matrix(self, p):
        rng = np.random.default_rng(p)
        states = [init_state(RlsConfig(p, 1, beta=0.5, delta=0.5)) for _ in range(5)]
        states[3].p_mat[0, 0] = -2.0
        states[4].p_mat[:] = 1e308 * np.eye(p)
        stack = np.stack([state.p_mat for state in states])
        for step in range(3):
            x_bars = rng.standard_normal((len(states), p))
            x_bars[3:] = np.eye(p)[0]
            if step == 0:
                for state, x in zip(states[3:], x_bars[3:]):
                    with pytest.raises(DegeneracyError):
                        advance_precision(state, x)
            failed = advance_precisions(stack, x_bars, 0.5)
            assert not failed[:3].any() and (step > 0 or failed[3:].all())
            for k, state in enumerate(states[:3]):
                advance_precision(state, x_bars[k])
                assert np.array_equal(stack[k], state.p_mat)

    @pytest.mark.parametrize("p", [2, 257])
    def test_advance_degeneracy_detected(self, p):
        # a negative diagonal entry of an indefinite P survives the update
        # along the first axis
        p_mat = np.eye(p)
        p_mat[-1, -1] = -1.0
        state = RlsState(p_mat=p_mat, step=3, config=RlsConfig(p, 1))
        x = np.zeros(p)
        x[0] = 1.0
        with pytest.raises(DegeneracyError) as exc:
            advance_precision(state, x)
        assert exc.value.step == 4

    def test_degeneracy_detected(self):
        # an indefinite precision matrix loses a positive diagonal entry;
        # 257 takes the strip update
        for p in (2, 257):
            p_mat = np.eye(p)
            p_mat[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
            bad = RlsState(p_mat=p_mat, step=3, config=RlsConfig(p, 1))
            p_before = p_mat.copy()
            x = np.zeros(p)
            x[0] = 1.0
            with pytest.raises(DegeneracyError) as exc:
                update_precision(bad, x)
            assert exc.value.step == 4
            assert bad.step == 3
            assert np.array_equal(bad.p_mat, p_before)

    def test_non_finite_input(self):
        with pytest.raises(InputError):
            update_precision(init_state(RlsConfig(2, 1)), np.array([np.inf, 0.0]))

    # 1e308 / 0.97 is finite, but the full-matrix form sums it with itself;
    # the strip form does not, so p = 300 overflows only through 1e308 / 0.5
    @pytest.mark.parametrize("p, beta", [(16, 0.97), (300, 0.5)])
    def test_overflow_is_degeneracy_without_warning(self, p, beta):
        state = RlsState(p_mat=1e308 * np.eye(p), step=0, config=RlsConfig(p, 1, beta=beta))
        x = np.zeros(p)
        x[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="non-finite") as exc:
                advance_precision(state, x)
        assert exc.value.step == 1
        assert state.step == 0

    # beta + x^T P x = 0.97 - 2 < 0: the downdate would still leave a
    # positive diagonal, so the denominator itself is checked
    @pytest.mark.parametrize("p", [16, 300])
    def test_non_positive_denominator(self, p):
        p_mat = np.eye(p)
        p_mat[0, 0] = -2.0
        state = RlsState(p_mat=p_mat, step=5, config=RlsConfig(p, 1, beta=0.97))
        p_before = p_mat.copy()
        x = np.zeros(p)
        x[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="denominator") as exc:
                advance_precision(state, x)
        assert exc.value.step == 6
        assert state.step == 5
        assert np.array_equal(state.p_mat, p_before)


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

    # the weight step keeps the update-stage contract: weights that overflow
    # are a divergence at the advanced state's precision step, and no numpy
    # warning comes first
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_raises(self):
        state = init_state(RlsConfig(2, 1, delta=1e-3))
        with pytest.raises(DivergenceError) as caught:
            rls_step(state, [[1e308, 0.0]], [1.0, 0.0], [-1e308])
        assert str(caught.value) == "rls_step: weights not finite after iteration 0 at precision step 1"
        assert (caught.value.iteration, caught.value.layer, caught.value.step) == (0, None, 1)


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


def test_lse_cost_requires_uniform_block_size():
    cfg = RlsConfig(2, 1)
    blocks = [
        SampleBlock(x=np.ones((2, 2)), y=np.ones((2, 1))),
        SampleBlock(x=np.ones((3, 2)), y=np.ones((3, 1))),
    ]
    with pytest.raises(InputError, match="uniform block size"):
        lse_cost(np.zeros((1, 2)), blocks, cfg)


# q = 2, p = 3: weights a row short used to broadcast to a cost, other
# weight shapes raised a bare numpy ValueError, and blocks of one target
# column passed
@pytest.mark.parametrize(
    "w_shape, q_block",
    [((1, 3), 2), ((2, 4), 2), ((2, 3), 1)],
    ids=["weights-row-1", "weights-column+1", "block-targets"],
)
def test_lse_cost_checks_shapes(w_shape, q_block):
    cfg = RlsConfig(3, 2)
    blocks = [SampleBlock(x=np.ones((2, 3)), y=np.ones((2, q_block))) for _ in range(3)]
    with pytest.raises(DimensionError):
        lse_cost(np.ones(w_shape), blocks, cfg)


def test_correlations_symmetric():
    rng = np.random.default_rng(11)
    cfg = RlsConfig(6, 1, beta=0.9, delta=0.3)
    blocks = [_random_block(rng, 3, 6, 1) for _ in range(10)]
    _, phi = accumulate_correlations(blocks, cfg)
    assert np.max(np.abs(phi - phi.T)) <= 1e-10
