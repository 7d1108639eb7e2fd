import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlsol import mlp
from rlsol.errors import (
    ConfigError,
    DegeneracyError,
    DimensionError,
    DivergenceError,
    InputError,
    ProtocolError,
)
from rlsol.mlp import (
    _deltas,
    CE_HEAD,
    SE_HEAD,
    Layer,
    MlpModel,
    SessionConfig,
    SessionEvent,
    backward,
    batch_backward,
    forward,
    head_gradient,
    init_bank,
    layer_virtual_input,
    plain_update_layers,
    rls_update_layers,
    run_session,
    sample_loss,
    softmax,
)
from rlsol.optimizers import GdConfig, precond_update_stage
from rlsol.rls import RlsConfig, SampleBlock, block_virtual_input, init_state, update_precision


def _random_model(rng, widths, head=SE_HEAD, activation="relu"):
    layers = []
    for i in range(len(widths) - 1):
        act = activation if i < len(widths) - 2 else "identity"
        layers.append(Layer(rng.standard_normal((widths[i + 1], widths[i])), act))
    return MlpModel(layers, head)


def _fd_gradients(model, x, y, step=1e-5):
    grads = []
    for l, layer in enumerate(model.layers):
        g = np.zeros_like(layer.weight)
        for idx in np.ndindex(layer.weight.shape):
            saved = layer.weight[idx]
            layer.weight[idx] = saved + step
            up = sample_loss(model, x, y)
            layer.weight[idx] = saved - step
            down = sample_loss(model, x, y)
            layer.weight[idx] = saved
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def _snapshot(model, block):
    return [layer.weight.copy() for layer in model.layers], block.x.copy(), block.y.copy()


def _assert_untouched(model, block, snapshot, new_model):
    """The given model and batch still hold their snapshot, and no returned
    weight shares memory with a given one."""
    weights, x, y = snapshot
    for layer, weight in zip(model.layers, weights):
        assert np.array_equal(layer.weight, weight)
    assert np.array_equal(block.x, x) and np.array_equal(block.y, y)
    for new in new_model.layers:
        for old in model.layers:
            assert not np.shares_memory(new.weight, old.weight)


class TestModel:
    def test_dimension_chain_enforced(self):
        with pytest.raises(DimensionError):
            MlpModel([Layer(np.ones((3, 2))), Layer(np.ones((1, 4)))])

    def test_final_activation_identity(self):
        with pytest.raises(ConfigError):
            MlpModel([Layer(np.ones((1, 2)), "relu")])

    def test_unknown_head(self):
        with pytest.raises(ConfigError):
            MlpModel([Layer(np.ones((1, 2)))], head="hinge")


class TestForward:
    def test_single_linear_layer(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal(3)
        z, _ = forward(MlpModel([Layer(w)]), x)
        assert np.allclose(z, w @ x)

    def test_dead_relu(self):
        model = MlpModel([Layer(-np.ones((2, 2)), "relu"), Layer(np.ones((1, 2)))])
        z, cache = forward(model, np.array([1.0, 1.0]))
        assert np.array_equal(cache.inputs[1], np.zeros(2))
        assert np.array_equal(z, np.zeros(1))

    def test_two_layer_oracle(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng, [4, 3, 2], activation="leaky_relu")
        x = rng.standard_normal(4)
        a = model.layers[0].weight @ x
        h = np.where(a > 0, a, 0.01 * a)
        ref = model.layers[1].weight @ h
        z, _ = forward(model, x)
        assert np.allclose(z, ref, atol=1e-12)

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda m: forward(m, np.ones(2)), DimensionError),
            (lambda m: forward(m, np.ones((4, 2))), DimensionError),
            (lambda m: forward(m, np.array([[1.0, 1.0, 1.0], [1.0, np.nan, 1.0]])), InputError),
            (lambda m: backward(m, forward(m, np.ones((4, 3)))[1], np.ones((4, 2))), DimensionError),
            (lambda m: sample_loss(MlpModel([Layer(np.ones((3, 2)))]), np.ones(2), np.ones(1)), DimensionError),
        ],
        ids=["short-vector", "narrow-batch", "nan-row", "target-shape", "loss-target"],
    )
    def test_dimension_error(self, call, error):
        model = MlpModel([Layer(np.ones((1, 3)))])
        with pytest.raises(error):
            call(model)


class TestBackward:
    def test_ce_symmetric_softmax(self):
        model = MlpModel([Layer(np.eye(2))], head=CE_HEAD)
        g = head_gradient(model, np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(g, [-0.5, 0.5])

    def test_identity_head_zero_residual(self):
        rng = np.random.default_rng(2)
        model = _random_model(rng, [3, 4, 2])
        x = rng.standard_normal(3)
        z, cache = forward(model, x)
        grads = backward(model, cache, z)
        assert all(np.max(np.abs(g)) == 0.0 for g in grads)

    @pytest.mark.parametrize("head,tol", [(SE_HEAD, 1e-5), (CE_HEAD, 1e-4)])
    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_finite_differences(self, head, tol, activation):
        rng = np.random.default_rng(3)
        for _ in range(5):
            model = _random_model(rng, [5, 6, 4, 3], head=head, activation=activation)
            x = rng.standard_normal(5)
            if head == CE_HEAD:
                y = np.zeros(3)
                y[int(rng.integers(0, 3))] = 1.0
            else:
                y = rng.standard_normal(3)
            z, cache = forward(model, x)
            grads = backward(model, cache, y)
            fd = _fd_gradients(model, x, y)
            for g, f in zip(grads, fd):
                assert np.max(np.abs(g - f)) <= tol * (1 + np.max(np.abs(f)))

    def test_ce_head_identity(self):
        rng = np.random.default_rng(4)
        model = MlpModel([Layer(rng.standard_normal((4, 4)))], head=CE_HEAD)
        for _ in range(50):
            z = rng.standard_normal(4)
            y = np.zeros(4)
            y[int(rng.integers(0, 4))] = 1.0
            assert np.max(np.abs(head_gradient(model, z, y) - (softmax(z) - y))) <= 1e-10


class TestVirtualInput:
    def test_singleton(self):
        rng = np.random.default_rng(5)
        model = _random_model(rng, [3, 2, 2])
        x = rng.standard_normal(3)
        _, cache = forward(model, x[None, :])
        assert np.array_equal(layer_virtual_input(cache, 0), x)

    def test_identical_rows(self):
        rng = np.random.default_rng(6)
        model = _random_model(rng, [3, 2, 2])
        x = rng.standard_normal(3)
        _, cache = forward(model, np.tile(x, (4, 1)))
        single = forward(model, x)[1]
        for l in range(2):
            assert np.allclose(layer_virtual_input(cache, l), single.inputs[l])

    def test_layer0_matches_block_mean(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, [4, 3, 1])
        block = SampleBlock(x=rng.standard_normal((6, 4)), y=rng.standard_normal((6, 1)))
        _, cache = batch_backward(model, block)
        x_bar, _ = block_virtual_input(block)
        assert np.allclose(layer_virtual_input(cache, 0), x_bar, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("head", [SE_HEAD, CE_HEAD])
@pytest.mark.parametrize("activation", ["identity", "relu", "leaky_relu"])
def test_batch_pass_is_mean_of_single_passes(n, head, activation):
    rng = np.random.default_rng(20 + n)
    model = _random_model(rng, [5, 6, 4, 3], head=head, activation=activation)
    x = rng.standard_normal((n, 5))
    if head == CE_HEAD:
        y = np.eye(3)[rng.integers(0, 3, n)]
    else:
        y = rng.standard_normal((n, 3))
    grads, cache = batch_backward(model, SampleBlock(x=x, y=y))
    singles = [forward(model, row)[1] for row in x]
    single_grads = [backward(model, c, t) for c, t in zip(singles, y)]
    for l in range(len(model.layers)):
        for got, want in (
            (grads[l], np.mean([g[l] for g in single_grads], axis=0)),
            (layer_virtual_input(cache, l), np.mean([c.inputs[l] for c in singles], axis=0)),
        ):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestRlsUpdateLayers:
    def test_single_layer_reduction(self):
        # one linear layer with the SE head and b=1 follows the generic
        # preconditioned stage exactly, step by step
        rng = np.random.default_rng(8)
        w0 = rng.standard_normal((2, 3))
        model = MlpModel([Layer(w0.copy())])
        bank = init_bank(model, delta=0.5, beta=0.95)
        w_ref = w0.copy()
        state_ref = init_state(RlsConfig(3, 2, beta=0.95, delta=0.5))
        for _ in range(6):
            block = SampleBlock(x=rng.standard_normal((1, 3)), y=rng.standard_normal((1, 2)))
            model, bank = rls_update_layers(model, bank, block, GdConfig(0.2, iterations=1))
            w_ref, state_ref = precond_update_stage(
                w_ref, block, state_ref, GdConfig(0.2, iterations=1)
            )
            assert np.allclose(model.layers[0].weight, w_ref, atol=1e-12)
            assert np.allclose(bank[0].p_mat, state_ref.p_mat, atol=1e-12)

    # Layer 0 has q = 8 outputs, layer 1 has q = 3: four rows take the
    # D^T (U P) / n order on layer 0 when lambda = 0, nine rows never do.
    # The stage computes each step in the array that becomes the new
    # weights; the expressions it replaced pin those bit for bit.
    @pytest.mark.parametrize("head", [SE_HEAD, CE_HEAD])
    @pytest.mark.parametrize("decay", [0.0, 0.3])
    @pytest.mark.parametrize("rows", [4, 9])
    def test_matches_reference_order(self, rows, decay, head):
        rng = np.random.default_rng(rows)
        model = _random_model(rng, [6, 8, 3], head=head)
        bank = init_bank(model, delta=0.5, beta=0.9)
        for _ in range(3):
            block = SampleBlock(
                x=rng.standard_normal((rows, 6)), y=softmax(rng.standard_normal((rows, 3)))
            )
            _, cache = forward(model, block.x)
            grads = backward(model, cache, block.y)
            deltas = _deltas(model, cache, block.y)
            snapshot = _snapshot(model, block)
            new_model, new_bank = rls_update_layers(
                model,
                [state.clone() for state in bank],
                block,
                GdConfig(0.05, iterations=1, weight_decay=decay),
            )
            _assert_untouched(model, block, snapshot, new_model)
            for l, layer in enumerate(model.layers):
                state = update_precision(bank[l], layer_virtual_input(cache, l))
                want = layer.weight - 0.05 * (grads[l] + decay * layer.weight) @ state.p_mat
                got = new_model.layers[l].weight
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                assert np.array_equal(new_bank[l].p_mat, state.p_mat)
                d, u, w = deltas[l], cache.inputs[l], layer.weight
                if decay == 0.0 and rows < w.shape[0]:
                    step = d.T @ (u @ state.p_mat) / rows
                else:
                    step = (d.T @ u / rows + decay * w) @ state.p_mat
                assert np.array_equal(got, w - 0.05 * step)
            model, bank = new_model, new_bank

    def test_zero_gradient_batch(self):
        rng = np.random.default_rng(9)
        model = _random_model(rng, [3, 4, 2])
        bank = init_bank(model)
        x = rng.standard_normal((5, 3))
        y = np.vstack([forward(model, row)[0] for row in x])
        block = SampleBlock(x=x, y=y)
        before = [s.step for s in bank]
        new_model, new_bank = rls_update_layers(model, bank, block, GdConfig(0.1, iterations=1))
        for old, new in zip(model.layers, new_model.layers):
            assert np.allclose(new.weight, old.weight, atol=1e-12)
        assert [s.step for s in new_bank] == [s + 1 for s in before]

    def test_default_delta_preset(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng, [4, 3, 2])
        bank = init_bank(model)
        for state, layer in zip(bank, model.layers):
            assert state.config.delta == 5e-4
            assert np.allclose(state.p_mat, np.eye(layer.weight.shape[1]) / 5e-4)

    # The rate and decay reach the stage only through GdConfig, whose range
    # checks name the value; no per-call rate bypasses them.
    @pytest.mark.parametrize(
        "rate, decay", [(-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (0.1, -0.1)]
    )
    def test_rate_and_decay_checked_through_config(self, rate, decay):
        rng = np.random.default_rng(11)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
        snapshot = [layer.weight.copy() for layer in model.layers]
        bad = rate if decay == 0.0 else decay
        with pytest.raises(ConfigError, match=re.escape(str(bad))):
            rls_update_layers(model, bank, block, GdConfig(rate, iterations=1, weight_decay=decay))
        for layer, weight in zip(model.layers, snapshot):
            assert np.array_equal(layer.weight, weight)
        assert [s.step for s in bank] == [0, 0]
        with pytest.raises(TypeError):
            rls_update_layers(model, bank, block, learning_rate=rate)

    def test_runs_config_iterations(self):
        # iterations = 3 in one call equals three calls of one iteration
        rng = np.random.default_rng(20)
        model = _random_model(rng, [4, 5, 2])
        bank = init_bank(model, delta=0.5)
        block = SampleBlock(x=rng.standard_normal((3, 4)), y=rng.standard_normal((3, 2)))
        got_model, got_bank = rls_update_layers(
            model, [state.clone() for state in bank], block, GdConfig(0.1, iterations=3)
        )
        for _ in range(3):
            model, bank = rls_update_layers(model, bank, block, GdConfig(0.1, iterations=1))
        for got, want in zip(got_model.layers, model.layers):
            assert np.array_equal(got.weight, want.weight)
        for got, want in zip(got_bank, bank):
            assert got.step == want.step == 3
            assert np.array_equal(got.p_mat, want.p_mat)


# plain_update_layers and backward compute each gradient step in the array
# that becomes the result; the expressions they replaced pin it bit for bit.
class TestStepsInPlace:
    @pytest.mark.parametrize("head", [SE_HEAD, CE_HEAD])
    @pytest.mark.parametrize("decay", [0.0, 0.3])
    def test_plain_update_layers(self, decay, head):
        rng = np.random.default_rng(50)
        model = _random_model(rng, [6, 8, 3], head=head)
        block = SampleBlock(x=rng.standard_normal((5, 6)), y=softmax(rng.standard_normal((5, 3))))
        _, cache = forward(model, block.x)
        deltas = _deltas(model, cache, block.y)
        snapshot = _snapshot(model, block)
        lr = 0.05
        new_model = plain_update_layers(
            model, block, GdConfig(lr, iterations=1, weight_decay=decay)
        )
        _assert_untouched(model, block, snapshot, new_model)
        for layer, new, d, u in zip(model.layers, new_model.layers, deltas, cache.inputs):
            w = layer.weight
            step = d.T @ u / block.size + decay * w
            assert np.array_equal(new.weight, w - lr * step)

    @pytest.mark.parametrize("head", [SE_HEAD, CE_HEAD])
    @pytest.mark.parametrize("rows", [None, 1, 9])
    def test_backward(self, rows, head):
        rng = np.random.default_rng(60)
        model = _random_model(rng, [6, 8, 3], head=head)
        shape = (6,) if rows is None else (rows, 6)
        x = rng.standard_normal(shape)
        y = softmax(rng.standard_normal(shape[:-1] + (3,)))
        _, cache = forward(model, x)
        grads = backward(model, cache, y)
        for l, (g, d, u) in enumerate(zip(grads, _deltas(model, cache, y), cache.inputs)):
            want = np.outer(d, u) if rows is None else d.T @ u / rows
            assert np.array_equal(g, want)
            for cached in cache.inputs + cache.preacts:
                assert not np.shares_memory(g, cached)
            assert not np.shares_memory(g, model.layers[l].weight)


# One call of each stage at lambda = 0 on the 512-512(relu)-2 head with 80
# rows: chained weight-sized temporaries peaked at 6.9 MiB (rls) and 8.6 MiB
# (plain) above entry; computed in place, 3.3 and 3.0 MiB, of which the new
# 512 x 512 weights are 2 MiB.
@pytest.mark.parametrize("stage", ["rls", "plain"])
def test_stage_allocation_peak(stage):
    rng = np.random.default_rng(70)
    d = 512
    model = MlpModel(
        [
            Layer(rng.standard_normal((d, d)) * np.sqrt(2.0 / d), "relu"),
            Layer(rng.standard_normal((2, d)) * np.sqrt(1.0 / d)),
        ],
        head=CE_HEAD,
    )
    block = SampleBlock(x=rng.standard_normal((80, d)), y=np.eye(2)[rng.integers(0, 2, 80)])
    cfg = GdConfig(1e-4, iterations=1)
    banks = [init_bank(model) for _ in range(2)]

    def call(bank):
        if stage == "rls":
            return rls_update_layers(model, bank, block, cfg)
        return plain_update_layers(model, block, cfg)

    call(banks[0])
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call(banks[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert peak - entry <= 4 * 2**20, f"{stage} peaked {(peak - entry) / 2**20:.2f} MiB above entry"


def _event_batch(rng, p, q, b=2):
    return SampleBlock(x=rng.standard_normal((b, p)), y=rng.standard_normal((b, q)))


def _session_cfg(**kw):
    defaults = dict(
        regular_cfg=GdConfig(0.05, iterations=1),
        occasional_cfg=GdConfig(0.05, iterations=2),
        memory_capacity=20,
        regular_period=10,
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


def _memory_after_each_append(batches, capacity):
    """The batch each update reads after each stored batch: batch k enters
    memory at step 2k + 1, and step 2k + 2 takes the occasional branch,
    whose plain update is replaced by a recorder."""
    p, q = batches[0].x.shape[1], batches[0].y.shape[1]
    model = MlpModel([Layer(np.zeros((q, p)))])
    events = []
    for k, batch in enumerate(batches):
        events += [SessionEvent(2 * k + 1, 1.0, batch), SessionEvent(2 * k + 2, -1.0)]
    seen = []

    def record(model, batch, config):
        seen.append(batch)
        return model

    cfg = _session_cfg(memory_capacity=capacity, regular_period=10**9)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "plain_update_layers", record)
        run_session(model, init_bank(model), events, cfg)
    assert len(seen) == len(batches)
    return seen


class TestSession:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5])
    def test_memory_keeps_newest(self, capacity):
        batches = [
            SampleBlock(x=np.full((1, 1), float(i)), y=np.zeros((1, 1)))
            for i in range(capacity + 1)
        ]
        last = _memory_after_each_append(batches, capacity)[-1]
        assert last.x[:, 0].tolist() == [float(i) for i in range(1, capacity + 1)]

    def test_memory_capacity_positive(self):
        with pytest.raises(ConfigError, match="memory_capacity must be at least 1"):
            _session_cfg(memory_capacity=0)

    def test_memory_follows_appends(self):
        # batches of 2, 2 and 3 rows in a memory of two
        batches = [SampleBlock(x=np.full((2, 1), float(i)), y=np.zeros((2, 1))) for i in range(3)]
        batches.append(SampleBlock(x=np.ones((3, 1)), y=np.zeros((3, 1))))
        seen = [batch.x[:, 0].tolist() for batch in _memory_after_each_append(batches, 2)]
        assert seen == [[0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0], [2.0, 2.0, 1.0, 1.0, 1.0]]

    # When this test fails, hypothesis's pytest plugin imports libcst to
    # suggest a patch; where an older mypy_extensions is installed that import
    # warns, and under -W error the warning would turn the failure report
    # into an INTERNALERROR ending the run.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        capacity=st.integers(1, 5),
        pushes=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=12,
        ),
        widths=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    )
    def test_memory_rows_match_batches(self, capacity, pushes, widths):
        # random sizes and evictions: the memory's batch is always the held
        # batches' rows, stacked oldest first
        p, q = widths
        batches = [_event_batch(np.random.default_rng(seed), p, q, b=size) for size, seed in pushes]
        for k, got in enumerate(_memory_after_each_append(batches, capacity)):
            held = batches[max(0, k + 1 - capacity) : k + 1]
            assert np.array_equal(got.x, np.vstack([b.x for b in held]))
            assert np.array_equal(got.y, np.vstack([b.y for b in held]))

    # a batch of other widths used to fail at the next update, or on the
    # next store with no step named
    @pytest.mark.parametrize("p,q", [(4, 1), (3, 2)], ids=["inputs", "targets"])
    def test_batch_width_mismatch_names_event_step(self, p, q):
        rng = np.random.default_rng(24)
        model = _random_model(rng, [3, 3, 1])
        events = [
            SessionEvent(1, 1.0, _event_batch(rng, 3, 1)),
            SessionEvent(3, 1.0, _event_batch(rng, p, q)),
        ]
        with pytest.raises(DimensionError, match="^event step 3: batch widths"):
            run_session(model, init_bank(model), events, _session_cfg())

    def test_all_positive_scores_regular_only(self):
        rng = np.random.default_rng(12)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        events = [
            SessionEvent(t, score=1.0, batch=_event_batch(rng, 3, 1)) for t in range(1, 31)
        ]
        _, audit = run_session(model, bank, events, _session_cfg(memory_capacity=100))
        kinds = [entry for entry in audit if entry[0] != "append"]
        assert kinds == [("regular", 10), ("regular", 20), ("regular", 30)]

    def test_failure_and_recovery_trace(self):
        rng = np.random.default_rng(13)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        events = [
            SessionEvent(1, 1.0, _event_batch(rng, 3, 1)),
            SessionEvent(5, -1.0),
            SessionEvent(10, 1.0, _event_batch(rng, 3, 1)),
        ]
        _, audit = run_session(model, bank, events, _session_cfg())
        assert audit == [
            ("append", 1),
            ("backup", 5),
            ("occasional", 5),
            ("append", 10),
            ("restore", 10),
            ("regular", 10),
        ]

    def test_eviction_keeps_newest_three(self):
        rng = np.random.default_rng(14)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        events = [
            SessionEvent(t, 1.0, _event_batch(rng, 3, 1)) for t in range(1, 6)
        ]
        _, audit = run_session(model, bank, events, _session_cfg(memory_capacity=3))
        evicted = [t for kind, t in audit if kind == "evict"]
        assert evicted == [1, 2]

    def test_backup_restore_bitwise(self):
        rng = np.random.default_rng(15)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        snapshot = [layer.weight.copy() for layer in model.layers]
        # occasional update with empty memory leaves weights alone; the
        # regular step at t=10 restores the backup with empty memory
        events = [SessionEvent(5, -1.0), SessionEvent(10, 1.0)]
        final, audit = run_session(model, bank, events, _session_cfg())
        assert ("restore", 10) in audit
        for w_final, w_snap in zip(final.layers, snapshot):
            assert np.array_equal(w_final.weight, w_snap)

    def test_restore_after_occasional_update_bitwise(self):
        # the occasional update at t=2 runs on non-empty memory; the restore
        # at t=10 brings back the pre-occasional weights, so the regular
        # update there starts from the caller's model
        rng = np.random.default_rng(20)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        snapshot = [layer.weight.copy() for layer in model.layers]
        batch = _event_batch(rng, 3, 1, b=4)
        cfg = _session_cfg()
        events = [SessionEvent(1, 1.0, batch), SessionEvent(2, -1.0), SessionEvent(10, 1.0)]
        occasional, _ = run_session(model, bank, events[:2], cfg)
        final, audit = run_session(model, bank, events, cfg)
        assert ("restore", 10) in audit
        ref, _ = rls_update_layers(model, bank, batch, cfg.regular_cfg)
        for got, want in zip(final.layers, ref.layers):
            assert np.array_equal(got.weight, want.weight)
        for layer, moved, w_snap in zip(model.layers, occasional.layers, snapshot):
            assert not np.array_equal(moved.weight, w_snap)
            assert np.array_equal(layer.weight, w_snap)

    def test_occasional_update_matches_plain_gd(self):
        # the occasional branch never touches any precision state: its
        # result is exactly the plain update over the pooled memory
        rng = np.random.default_rng(16)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        batch = _event_batch(rng, 3, 1, b=4)
        cfg = _session_cfg()
        events = [SessionEvent(1, 1.0, batch), SessionEvent(2, -1.0)]
        final, _ = run_session(model, bank, events, cfg)
        ref = plain_update_layers(model, batch, cfg.occasional_cfg)
        for got, want in zip(final.layers, ref.layers):
            assert np.array_equal(got.weight, want.weight)

    # 272 inputs: layer 0 takes the in-place precision update
    @pytest.mark.parametrize("width", [3, 272])
    def test_caller_state_unchanged(self, width):
        rng = np.random.default_rng(31)
        model = _random_model(rng, [width, 3, 1])
        bank = init_bank(model, delta=1.0)
        weights_before = [layer.weight.copy() for layer in model.layers]
        p_before = [state.p_mat.copy() for state in bank]
        events = [SessionEvent(t, 1.0, _event_batch(rng, width, 1)) for t in range(1, 6)]
        _, audit = run_session(model, bank, events, _session_cfg(regular_period=1))
        assert [t for kind, t in audit if kind == "regular"] == [1, 2, 3, 4, 5]
        for state, p_mat in zip(bank, p_before):
            assert np.array_equal(state.p_mat, p_mat)
            assert state.step == 0
        for layer, weight in zip(model.layers, weights_before):
            assert np.array_equal(layer.weight, weight)

    def test_non_increasing_t_rejected(self):
        rng = np.random.default_rng(17)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        events = [SessionEvent(2, 1.0), SessionEvent(2, 1.0)]
        with pytest.raises(ProtocolError):
            run_session(model, bank, events, _session_cfg())

    # a NaN score fails both `>` and `<=` against the threshold, so its batch
    # was never stored and no occasional update fired
    def test_nan_score_rejected(self):
        rng = np.random.default_rng(18)
        model = _random_model(rng, [3, 3, 1])
        events = [
            SessionEvent(1, 1.0, _event_batch(rng, 3, 1)),
            SessionEvent(4, float("nan"), _event_batch(rng, 3, 1)),
        ]
        with pytest.raises(InputError, match="event step 4"):
            run_session(model, init_bank(model), events, _session_cfg())


# a float period fires at fractional phases ((t - 1) % 2.5 == 0 at t = 1, 6,
# 11, ...) and a float capacity fails mid-run inside deque()
@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("name", ["memory_capacity", "regular_period"])
def test_session_counts_must_be_integers(name, value):
    stage = GdConfig(0.1, iterations=1)
    with pytest.raises(ConfigError, match=name):
        SessionConfig(stage, stage, **{name: value})


def test_bank_requires_one_state_per_layer():
    rng = np.random.default_rng(19)
    model = _random_model(rng, [3, 3, 1])
    short = [init_state(RlsConfig(3, 3))]
    block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
    with pytest.raises(ConfigError):
        rls_update_layers(model, short, block, GdConfig(0.1, iterations=1))


# a bank built for other widths fails at entry, naming the first layer whose
# state does not match, before any state advances
def test_mismatched_bank_names_layer_and_is_not_advanced():
    rng = np.random.default_rng(23)
    model = _random_model(rng, [3, 4, 2])
    bank = init_bank(_random_model(rng, [3, 5, 2]))
    given = [state.p_mat.copy() for state in bank]
    block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 2)))
    with pytest.raises(DimensionError, match="^layer 1: precision dimension 5 != layer input 4$"):
        rls_update_layers(model, bank, block, GdConfig(0.1, iterations=1))
    assert [state.step for state in bank] == [0, 0]
    for state, p_mat in zip(bank, given):
        assert np.array_equal(state.p_mat, p_mat)


# a batch whose input or target width is not the model's fails at entry,
# naming both widths, before any precision state advances (it once failed
# in the first iteration's forward pass or target check)
@pytest.mark.parametrize("stage", ["rls", "plain"])
@pytest.mark.parametrize("p,q", [(4, 2), (3, 3)], ids=["inputs", "targets"])
def test_stage_batch_widths_checked_at_entry(stage, p, q):
    rng = np.random.default_rng(25)
    model = _random_model(rng, [3, 4, 2])
    bank = init_bank(model)
    given = [state.p_mat.copy() for state in bank]
    block = SampleBlock(x=rng.standard_normal((2, p)), y=rng.standard_normal((2, q)))
    message = re.escape(f"batch widths ({p}, {q}) != the model's (3, 2)")
    with pytest.raises(DimensionError, match=f"^{message}$"):
        if stage == "rls":
            rls_update_layers(model, bank, block, GdConfig(0.1, iterations=1))
        else:
            plain_update_layers(model, block, GdConfig(0.1, iterations=1))
    assert [state.step for state in bank] == [0, 0]
    for state, p_mat in zip(bank, given):
        assert np.array_equal(state.p_mat, p_mat)


# an indefinite precision matrix fails its advance; the DegeneracyError
# names the layer and the precision step
def test_degenerate_layer_state_names_layer():
    rng = np.random.default_rng(29)
    model = _random_model(rng, [3, 4, 2])
    bank = init_bank(model)
    bank[1].p_mat[0, 0] = -1.0
    block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 2)))
    with pytest.raises(DegeneracyError) as caught:
        rls_update_layers(model, bank, block, GdConfig(0.1, iterations=1))
    err = caught.value
    assert (err.layer, err.step) == (1, 1)
    assert str(err).startswith("layer 1: ")


# at a large rate the weights overflow; the stage names the layer and the
# precision step, and no numpy warning comes first (this test runs with
# warnings as errors)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", ["rls", "plain"])
def test_diverging_stage_names_layer_and_step(stage):
    rng = np.random.default_rng(0)
    model = _random_model(rng, [4, 6, 2])
    bank = init_bank(model)
    block = SampleBlock(x=rng.standard_normal((5, 4)), y=rng.standard_normal((5, 2)))
    cfg = GdConfig(1e4, iterations=20)
    with pytest.raises(DivergenceError) as caught:
        if stage == "rls":
            rls_update_layers(model, bank, block, cfg)
        else:
            plain_update_layers(model, block, cfg)
    err = caught.value
    assert err.layer is not None
    assert f"layer {err.layer}" in str(err) and f"iteration {err.iteration}" in str(err)
    if stage == "rls":
        # the failing layer's state was advanced once per iteration up to it
        assert err.step == bank[err.layer].step == err.iteration + 1
        assert f"precision step {err.step}" in str(err)
    else:
        assert err.step is None
