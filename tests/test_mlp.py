import re

import numpy as np
import pytest

from rlsol.errors import ConfigError, DimensionError, InputError, ProtocolError
from rlsol.mlp import (
    CE_HEAD,
    SE_HEAD,
    Layer,
    LayerRlsBank,
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
    read_session_events,
    rls_update_layers,
    run_session,
    sample_loss,
    softmax,
    write_session_events,
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
            model, bank = rls_update_layers(model, bank, block, learning_rate=0.2)
            w_ref, state_ref = precond_update_stage(
                w_ref, block, state_ref, GdConfig(0.2, iterations=1)
            )
            assert np.allclose(model.layers[0].weight, w_ref, atol=1e-12)
            assert np.allclose(bank.states[0].p_mat, state_ref.p_mat, atol=1e-12)

    # Layer 0 has q = 8 outputs, layer 1 has q = 3: four rows take the
    # D^T (U P) / n order on layer 0 when lambda = 0, nine rows never do.
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
            new_model, new_bank = rls_update_layers(
                model, bank, block, learning_rate=0.05, weight_decay=decay
            )
            for l, layer in enumerate(model.layers):
                state = update_precision(bank.states[l], layer_virtual_input(cache, l))
                want = layer.weight - 0.05 * (grads[l] + decay * layer.weight) @ state.p_mat
                got = new_model.layers[l].weight
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                assert np.array_equal(new_bank.states[l].p_mat, state.p_mat)
            model, bank = new_model, new_bank

    def test_zero_gradient_batch(self):
        rng = np.random.default_rng(9)
        model = _random_model(rng, [3, 4, 2])
        bank = init_bank(model)
        x = rng.standard_normal((5, 3))
        y = np.vstack([forward(model, row)[0] for row in x])
        block = SampleBlock(x=x, y=y)
        before = [s.step for s in bank.states]
        new_model, new_bank = rls_update_layers(model, bank, block, learning_rate=0.1)
        for old, new in zip(model.layers, new_model.layers):
            assert np.allclose(new.weight, old.weight, atol=1e-12)
        assert [s.step for s in new_bank.states] == [s + 1 for s in before]

    def test_default_delta_preset(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng, [4, 3, 2])
        bank = init_bank(model)
        for state, layer in zip(bank.states, model.layers):
            assert state.config.delta == 5e-4
            assert np.allclose(state.p_mat, np.eye(layer.weight.shape[1]) / 5e-4)

    def test_per_layer_rate_length_checked(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
        with pytest.raises(ConfigError):
            rls_update_layers(model, bank, block, learning_rate=[0.1, 0.1, 0.1])


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


class TestSession:
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

    def test_non_increasing_t_rejected(self):
        rng = np.random.default_rng(17)
        model = _random_model(rng, [3, 3, 1])
        bank = init_bank(model)
        events = [SessionEvent(2, 1.0), SessionEvent(2, 1.0)]
        with pytest.raises(ProtocolError):
            run_session(model, bank, events, _session_cfg())


def test_event_file_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    events = [
        SessionEvent(1, 0.7, _event_batch(rng, 3, 1)),
        SessionEvent(2, -0.5),
        SessionEvent(7, 1.2, _event_batch(rng, 3, 1)),
    ]
    path = tmp_path / "events.jsonl"
    write_session_events(path, events)
    loaded = read_session_events(path)
    assert len(loaded) == 3
    for orig, back in zip(events, loaded):
        assert back.t == orig.t
        assert back.score == orig.score
        if orig.batch is None:
            assert back.batch is None
        else:
            assert np.array_equal(back.batch.x, orig.batch.x)
            assert np.array_equal(back.batch.y, orig.batch.y)
    # malformed lines raise InputError naming the file and the line
    good = '{"t": 1, "score": 0.5}\n'
    for bad in ('{"t": 2, "score": 1.0, "x": [[1.0]]}', '{"t": 2}', "not json"):
        path.write_text(good + bad + "\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:2:")):
            read_session_events(path)


def test_bank_requires_one_state_per_layer():
    rng = np.random.default_rng(19)
    model = _random_model(rng, [3, 3, 1])
    short = LayerRlsBank([init_state(RlsConfig(3, 3))])
    block = SampleBlock(x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1)))
    with pytest.raises(ConfigError):
        rls_update_layers(model, short, block, learning_rate=0.1)
