"""Acceptance gate: ten oracle- and property-based criteria.

Each test prints one pass/fail line so the gate is readable from the raw
test output.
"""

import json
from pathlib import Path

import jsonschema
import numpy as np

from rlsol import checks
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
    ConvSessionConfig,
    ConvSessionEvent,
    FeatureMap,
    WeightedSample,
    init_conv_state,
    run_conv_session,
)
from rlsol.mlp import (
    SE_HEAD,
    Layer,
    MlpModel,
    SessionConfig,
    SessionEvent,
    backward,
    forward,
    init_bank,
    run_session,
)
from rlsol.optimizers import GdConfig
from rlsol.rls import SampleBlock


def _report(index: int, name: str, ok: bool) -> None:
    print(f"[criterion {index:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed"


def test_criterion_1_recursive_batch_equivalence():
    _report(1, "recursive/batch equivalence over 20 streams", checks.recursive_batch_equivalence())


def test_criterion_2_sherman_morrison_consistency():
    _report(2, "Sherman-Morrison consistency over 1e4 updates", checks.sherman_morrison_consistency())


def test_criterion_3_gain_identity():
    _report(3, "gain identity on 1000 random instances", checks.gain_identity())


def test_criterion_4_virtual_input_bound():
    _report(4, "virtual-input bound on 1000 random pairs", checks.virtual_input_bound())


def test_criterion_5_mlp_gradient_checks():
    _report(5, "MLP finite-difference and CE-head checks", checks.mlp_gradient_checks())


def test_criterion_6_conv_lowering():
    _report(6, "conv lowering and loss identity over 200 shapes", checks.conv_lowering())


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


def test_criterion_10_cli_determinism(tmp_path, capsys, verify_run):
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
    verify_code, verify_first = verify_run
    ok = ok and verify_code == 0
    ok = ok and cli_main(["verify"]) == 0
    ok = ok and capsys.readouterr().out == verify_first
    # JSON report validates against the shipped schema
    schema_path = Path(__file__).parent.parent / "src" / "rlsol" / "data" / "report_schema.json"
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    jsonschema.validate(report, json.loads(schema_path.read_text()))
    _report(10, "CLI byte-identical determinism", ok)
