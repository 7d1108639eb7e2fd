"""Acceptance gate: ten oracle- and property-based criteria.

Each test prints one pass/fail line so the gate is readable from the raw
test output.
"""

import itertools
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rlsol.bench import compare_retention
from rlsol.cli import (
    DEFAULT_CONFIG,
    main as cli_main,
    parse_config,
    _params_from_config,
    _scenario_from_config,
)
from rlsol.conv import (
    ConvLayer,
    ConvRlsState,
    ConvSessionConfig,
    ConvSessionEvent,
    FeatureMap,
    SampleSet,
    WeightedSample,
    conv_forward,
    conv_loss,
    init_conv_state,
    output_shape,
    run_conv_session,
    unroll_kernel,
)
from rlsol.mlp import (
    CE_HEAD,
    SE_HEAD,
    Layer,
    MlpModel,
    SessionConfig,
    SessionEvent,
    backward,
    forward,
    head_gradient,
    init_bank,
    run_session,
    sample_loss,
    softmax,
)
from rlsol.optimizers import GdConfig
from rlsol.rls import (
    RlsConfig,
    SampleBlock,
    batch_solve,
    block_virtual_input,
    gain_vector,
    init_state,
    rls_step,
    update_precision,
)


def _report(index: int, name: str, ok: bool) -> None:
    print(f"[criterion {index:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed"


def test_criterion_1_recursive_batch_equivalence():
    rng = np.random.default_rng(101)
    grid = list(itertools.product([5, 10, 20], [1, 3], [0.9, 1.0], [1e-3, 1.0]))
    rng.shuffle(grid)
    worst = 0.0
    for p, q, beta, delta in grid[:20]:
        cfg = RlsConfig(int(p), int(q), beta=float(beta), delta=float(delta))
        state = init_state(cfg)
        w = np.zeros((q, p))
        phi = cfg.delta * np.eye(p)
        z = np.zeros((q, p))
        for _ in range(200):
            x = rng.standard_normal(p)
            y = rng.standard_normal(q)
            w, state = rls_step(state, w, x, y)
            # shadow accumulators reproduce the batch normal equations
            phi = cfg.beta * phi + np.outer(x, x)
            z = cfg.beta * z + np.outer(y, x)
            ref = np.linalg.solve(phi, z.T).T
            rel = np.linalg.norm(w - ref) / (1 + np.linalg.norm(ref))
            worst = max(worst, rel)
    # cross-check the shadow against batch_solve on one short stream
    blocks = [
        SampleBlock(x=rng.standard_normal((1, 5)), y=rng.standard_normal((1, 2)))
        for _ in range(50)
    ]
    cfg = RlsConfig(5, 2, beta=0.9, delta=1e-3)
    state = init_state(cfg)
    w = np.zeros((2, 5))
    for block in blocks:
        w, state = rls_step(state, w, block.x[0], block.y[0])
    ref = batch_solve(blocks, cfg)
    worst = max(worst, np.linalg.norm(w - ref) / (1 + np.linalg.norm(ref)))
    _report(1, "recursive/batch equivalence over 20 streams", worst <= 1e-8)


def test_criterion_2_sherman_morrison_consistency():
    rng = np.random.default_rng(102)
    cfg = RlsConfig(8, 1, beta=0.99, delta=0.5)
    state = init_state(cfg)
    phi = cfg.delta * np.eye(8)
    eye = np.eye(8)
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(8)
        state = update_precision(state, x)
        phi = cfg.beta * phi + np.outer(x, x)
        worst = max(worst, np.linalg.norm(state.p_mat @ phi - eye))
    _report(2, "Sherman-Morrison consistency over 1e4 updates", worst <= 1e-8)


def test_criterion_3_gain_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 12))
        cfg = RlsConfig(p, 1, beta=float(rng.uniform(0.9, 1.0)), delta=float(rng.uniform(0.1, 2.0)))
        state = init_state(cfg)
        # advance to a random interior state
        for _ in range(3):
            state = update_precision(state, rng.standard_normal(p))
        x = rng.standard_normal(p)
        k = gain_vector(state, x)
        new = update_precision(state, x)
        worst = max(worst, float(np.max(np.abs(k - x @ new.p_mat))))
    _report(3, "gain identity on 1000 random instances", worst <= 1e-10)


def test_criterion_4_virtual_input_bound():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(1000):
        b = int(rng.integers(2, 33))
        p = int(rng.integers(2, 8))
        q = int(rng.integers(1, 4))
        block = SampleBlock(x=rng.standard_normal((b, p)), y=rng.standard_normal((b, q)))
        w = rng.standard_normal((q, p))
        x_bar, y_bar = block_virtual_input(block)
        lhs = float(np.sum((y_bar - w @ x_bar) ** 2))
        rhs = float(np.sum((block.y - block.x @ w.T) ** 2) / b)
        ok = ok and lhs <= rhs + 1e-12
    _report(4, "virtual-input bound on 1000 random pairs", ok)


def _random_net(rng, head):
    widths = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)) + 1)]
    layers = []
    for i in range(len(widths) - 1):
        act = "identity"
        if i < len(widths) - 2:
            act = "relu" if rng.integers(0, 2) == 0 else "leaky_relu"
        layers.append(Layer(rng.standard_normal((widths[i + 1], widths[i])), act))
    return MlpModel(layers, head)


def test_criterion_5_mlp_gradient_checks():
    rng = np.random.default_rng(105)
    ok = True
    for i in range(50):
        head = SE_HEAD if i % 2 == 0 else CE_HEAD
        tol = 1e-5 if head == SE_HEAD else 1e-4
        model = _random_net(rng, head)
        x = rng.standard_normal(model.input_dim)
        if head == CE_HEAD:
            y = np.zeros(model.output_dim)
            y[int(rng.integers(0, model.output_dim))] = 1.0
        else:
            y = rng.standard_normal(model.output_dim)
        _, cache = forward(model, x)
        grads = backward(model, cache, y)
        step = 1e-5
        for l, layer in enumerate(model.layers):
            fd = np.zeros_like(layer.weight)
            for idx in np.ndindex(layer.weight.shape):
                saved = layer.weight[idx]
                layer.weight[idx] = saved + step
                up = sample_loss(model, x, y)
                layer.weight[idx] = saved - step
                down = sample_loss(model, x, y)
                layer.weight[idx] = saved
                fd[idx] = (up - down) / (2 * step)
            ok = ok and np.max(np.abs(grads[l] - fd)) <= tol * (1 + np.max(np.abs(fd)))
    # cross-entropy head gradient identity
    for _ in range(200):
        q = int(rng.integers(2, 8))
        model = MlpModel([Layer(np.eye(q))], head=CE_HEAD)
        z = rng.standard_normal(q)
        y = np.zeros(q)
        y[int(rng.integers(0, q))] = 1.0
        ok = ok and np.max(np.abs(head_gradient(model, z, y) - (softmax(z) - y))) <= 1e-10
    _report(5, "MLP finite-difference and CE-head checks", ok)


def _direct_conv(fm, layer):
    data = fm.data
    if layer.padding:
        data = np.pad(
            data,
            ((0, 0), (layer.padding, layer.padding), (layer.padding, layer.padding)),
        )
    _, kh, kw = layer.kernel.shape
    h_out, w_out = output_shape(fm, layer)
    out = np.zeros((h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            r, c = i * layer.stride, j * layer.stride
            out[i, j] = np.sum(data[:, r : r + kh, c : c + kw] * layer.kernel)
    return out


def test_criterion_6_conv_lowering():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(200):
        c = int(rng.integers(1, 9))
        kh, kw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - 2 * padding), kh + 4))
        w = int(rng.integers(max(1, kw - 2 * padding), kw + 4))
        if h + 2 * padding < kh or w + 2 * padding < kw:
            continue
        fm = FeatureMap(rng.standard_normal((c, h, w)))
        layer = ConvLayer(rng.standard_normal((c, kh, kw)), stride, padding)
        spatial = _direct_conv(fm, layer)
        ok = ok and np.max(np.abs(conv_forward(fm, layer) - spatial)) <= 1e-10
        shape = spatial.shape
        sample = WeightedSample(fm, rng.standard_normal(shape), rng.uniform(0, 1, shape))
        sset = SampleSet(1, [sample])
        lam = float(rng.uniform(0, 1))
        spatial_loss = float(
            np.sum(sample.gamma * (sample.target - spatial) ** 2)
            + 0.5 * lam * np.sum(layer.kernel**2)
        )
        ok = ok and abs(conv_loss(sset, layer, lam) - spatial_loss) <= 1e-10
    _report(6, "conv lowering and loss identity over 200 shapes", ok)


def test_criterion_7_stationary_point_normal_equations():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(20):
        p = int(rng.integers(2, 6))
        h = int(rng.integers(2, 5))
        q = h + int(rng.integers(1, 4))  # strictly taller: non-trivial null space
        # positive weights and input keep every ReLU active, so the
        # activation derivative is the identity and W^r = W1 has full
        # column rank almost surely
        w0 = rng.uniform(0.1, 1.0, (h, p))
        w1 = rng.standard_normal((q, h))
        model = MlpModel([Layer(w0.copy(), "relu"), Layer(w1.copy())], head=SE_HEAD)
        x = rng.uniform(0.1, 1.0, p)
        z, cache = forward(model, x)
        # residual in the null space of W1^T zeroes the first-layer gradient
        v = rng.standard_normal(q)
        proj = w1 @ np.linalg.solve(w1.T @ w1, w1.T @ v)
        r = v - proj
        y = z - r
        grads = backward(model, cache, y)
        ok = ok and np.max(np.abs(grads[0])) <= 1e-8
        # normal equations at the stationary point
        u0 = cache.inputs[0]
        lhs = (w0 @ u0)[:, None] @ u0[None, :]
        pinv_y = np.linalg.solve(w1.T @ w1, w1.T @ y)
        rhs = pinv_y[:, None] @ u0[None, :]
        ok = ok and np.max(np.abs(lhs - rhs)) <= 1e-8
    _report(7, "stationary-point normal equations on 20 instances", ok)


def test_criterion_8_memory_retention_experiment():
    cfg = parse_config(DEFAULT_CONFIG)
    scenario = _scenario_from_config(cfg)
    params = _params_from_config(cfg)
    summary = compare_retention(scenario, ["rls_precond", "plain_bgd"], 50, params)
    win_rate = summary.win_matrix[0, 1]
    adapt_rls = summary.final_adaptation[0].mean()
    adapt_bgd = summary.final_adaptation[1].mean()
    ok = win_rate >= 0.90 and adapt_rls <= 2.0 * adapt_bgd
    print(
        f"    retention win rate {win_rate:.2f}, "
        f"adaptation ratio {adapt_rls / adapt_bgd:.2f}"
    )
    _report(8, "memory retention on 50 paired seeds", ok)


def test_criterion_9_algorithm_fidelity_replays():
    rng = np.random.default_rng(109)
    ok = True

    # --- MLP session: every branch in a scripted order
    model = MlpModel(
        [Layer(rng.standard_normal((3, 3)), "relu"), Layer(rng.standard_normal((1, 3)))]
    )
    bank = init_bank(model)
    batch = lambda: SampleBlock(
        x=rng.standard_normal((2, 3)), y=rng.standard_normal((2, 1))
    )
    events = [
        SessionEvent(1, 1.0, batch()),
        SessionEvent(2, 1.0, batch()),
        SessionEvent(3, 1.0, batch()),
        SessionEvent(4, 1.0, batch()),
        SessionEvent(5, -1.0),            # backup + occasional
        SessionEvent(6, -1.0),            # occasional (backup retained)
        SessionEvent(10, 1.0, batch()),   # restore + regular
        SessionEvent(20, 1.0, batch()),   # regular
    ]
    cfg = SessionConfig(
        regular_cfg=GdConfig(0.01, iterations=1),
        occasional_cfg=GdConfig(0.01, iterations=1),
        memory_capacity=3,
        regular_period=10,
    )
    _, audit = run_session(model, bank, events, cfg)
    expected = [
        ("append", 1),
        ("append", 2),
        ("append", 3),
        ("append", 4),
        ("evict", 1),
        ("backup", 5),
        ("occasional", 5),
        ("occasional", 6),
        ("append", 10),
        ("evict", 2),
        ("restore", 10),
        ("regular", 10),
        ("append", 20),
        ("evict", 3),
        ("regular", 20),
    ]
    ok = ok and audit == expected

    # --- conv session: 20-step schedule plus a hard-negative trigger
    layer = ConvLayer(rng.standard_normal((1, 2, 2)))
    state = init_conv_state(layer, delta=1.0)

    def conv_event(t, hard=False):
        fm = FeatureMap(rng.standard_normal((1, 3, 3)))
        sample = WeightedSample(fm, rng.standard_normal((2, 2)), np.ones((2, 2)))
        return ConvSessionEvent(t, sample=sample, hard_negative=hard)

    conv_events = [conv_event(t, hard=(t == 7)) for t in range(1, 45)]
    conv_cfg = ConvSessionConfig(GdConfig(0.01, iterations=1), update_period=20, sample_capacity=100)
    _, conv_audit = run_conv_session(layer, state, conv_events, conv_cfg)
    updates = [t for kind, t in conv_audit if kind == "update"]
    ok = ok and updates == [1, 7, 21, 41]
    ok = ok and ("hard_negative", 7) in conv_audit
    inserts = [t for kind, t in conv_audit if kind == "insert"]
    ok = ok and inserts == list(range(1, 45))
    _report(9, "algorithm fidelity replays", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    small = tmp_path / "small.cfg"
    small.write_text("input_dim = 8\nregime_blocks = 10\nholdout_size = 32\nn_seeds = 3\n")
    ok = True
    for name in ("run1", "run2"):
        code = cli_main(
            ["bench", "run", "--config", str(small), "--out", str(tmp_path / name)]
        )
        ok = ok and code == 0
    for fname in ("report.csv", "report.json"):
        first = (tmp_path / "run1" / fname).read_bytes()
        second = (tmp_path / "run2" / fname).read_bytes()
        ok = ok and first == second
    # demo and verify output stability
    capsys.readouterr()  # drop the bench-run stdout
    cli_main(["demo", "rls"])
    demo_first = capsys.readouterr().out
    cli_main(["demo", "rls"])
    ok = ok and capsys.readouterr().out == demo_first
    ok = ok and cli_main(["verify"]) == 0
    verify_first = capsys.readouterr().out
    ok = ok and cli_main(["verify"]) == 0
    ok = ok and capsys.readouterr().out == verify_first
    # JSON report validates against the shipped schema
    schema_path = Path(__file__).parent.parent / "src" / "rlsol" / "data" / "report_schema.json"
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    jsonschema.validate(report, json.loads(schema_path.read_text()))
    _report(10, "CLI byte-identical determinism", ok)
