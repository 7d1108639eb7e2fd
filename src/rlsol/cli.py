"""Command-line interface.

Subcommands:
  verify     run acceptance criteria 1-6 (rlsol.checks): one line per check
  bench run  execute a configured drift experiment, write CSV/JSON reports
  demo rls   print an annotated 20-step recursion trace

Exit codes: 0 success, 1 verification failure, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
from dataclasses import fields
from importlib import metadata
from pathlib import Path

import numpy as np

from . import bench, checks
from .errors import ConfigError, RlsolError
from .rls import RlsConfig, init_state, rls_step

# Config keys and their defaults: the bench.build_scenario arguments, the
# run settings, then the bench.BenchParams fields. A key's type is its
# default's type; unknown keys are hard errors so typos never pass silently.
_CONFIG_DEFAULTS = {
    "kind": bench.REGRESSION,
    "input_dim": 16,
    "output_dim": 1,
    "n_regimes": 2,
    "regime_blocks": 60,
    "block_size": 8,
    "holdout_size": 256,
    "noise_sigma": 0.05,
    "seed": 1,
    "n_seeds": 50,
    "learners": "rls_precond,plain_bgd",
    **{f.name: f.default for f in fields(bench.BenchParams)},
}

DEFAULT_CONFIG = Path(__file__).parent / "data" / "canonical.cfg"


def parse_config(path) -> dict:
    """Flat key=value file: comments start with '#', keys are typed,
    unknown keys raise a ConfigError naming the key."""
    values = dict(_CONFIG_DEFAULTS)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = type(_CONFIG_DEFAULTS[key])(value)
        except ValueError as err:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}"
            ) from err
    return values


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# --- verify ------------------------------------------------------------


def cmd_verify(args) -> int:
    failures = 0
    for name, check in checks.CHECKS:
        ok = check()
        print(f"{name:32s} {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"{len(checks.CHECKS) - failures}/{len(checks.CHECKS)} checks passed")
    return 0 if failures == 0 else 1


# --- bench run ---------------------------------------------------------


def _scenario_from_config(cfg: dict) -> bench.DriftScenario:
    names = inspect.signature(bench.build_scenario).parameters
    return bench.build_scenario(**{name: cfg[name] for name in names})


def _params_from_config(cfg: dict) -> bench.BenchParams:
    return bench.BenchParams(**{f.name: cfg[f.name] for f in fields(bench.BenchParams)})


def _write_csv(path: Path, summary: bench.PairedSummary, n_regimes: int, timing: bool) -> None:
    header = ["seed", "learner", "step", "adaptation_error"]
    header += [f"retention_error_regime{r + 1}" for r in range(n_regimes)]
    header += ["forgetting_gap", "wall_ms"]
    lines = [",".join(header)]
    for s_idx, seed in enumerate(summary.seeds):
        for report in summary.reports[s_idx]:
            wall = report.wall_ms if timing else 0.0
            for step in range(report.n_steps):
                row = [str(seed), report.learner, str(step), _fmt(report.adaptation_error[step])]
                row += [_fmt(report.retention_error[r, step]) for r in range(n_regimes)]
                row += [_fmt(report.forgetting_gap[0, step]), _fmt(wall)]
                lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _json_number(value) -> float | None:
    """A failed learner's mean error may be infinite or NaN; JSON has no
    token for either, so it is written as null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _write_json(path: Path, summary: bench.PairedSummary, cfg_digest: str) -> None:
    try:
        version = metadata.version("rlsol")
    except metadata.PackageNotFoundError:
        version = "unknown"
    summaries = {}
    for l_idx, learner in enumerate(summary.learners):
        runs = [seed_reports[l_idx] for seed_reports in summary.reports]
        entry = {
            "mean_final_retention_regime1": _json_number(summary.final_retention[l_idx].mean()),
            "mean_final_adaptation": _json_number(summary.final_adaptation[l_idx].mean()),
            "mean_forgetting_gap_regime1": _json_number(summary.mean_forgetting_gap[l_idx]),
            "n_diverged": sum(r.diverged_at is not None for r in runs),
        }
        # written only when non-zero, so reports without failures keep their bytes
        n_failed = sum(r.failed_at is not None for r in runs)
        if n_failed:
            entry["n_failed"] = n_failed
        summaries[learner] = entry
    win_rates = {
        li: {
            lj: float(summary.win_matrix[i, j])
            for j, lj in enumerate(summary.learners)
        }
        for i, li in enumerate(summary.learners)
    }
    report = {
        "metadata": {
            "config_digest": cfg_digest,
            "package_version": version,
            "n_seeds": summary.n_seeds,
            "learners": summary.learners,
        },
        "stream_digests": summary.stream_digests,
        "summaries": summaries,
        "win_rate_matrix": win_rates,
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_bench_run(args) -> int:
    config_path = Path(args.config) if args.config else DEFAULT_CONFIG
    cfg = parse_config(config_path)
    if args.seeds is not None:
        cfg["n_seeds"] = args.seeds
    scenario = _scenario_from_config(cfg)
    params = _params_from_config(cfg)
    learners = [s.strip() for s in cfg["learners"].split(",") if s.strip()]
    # the reports key summaries and win rates by learner name
    for i, name in enumerate(learners):
        if name in learners[:i]:
            raise ConfigError(f"learner {name!r} is listed twice")
    summary = bench.compare_retention(scenario, learners, cfg["n_seeds"], params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    n_regimes = cfg["n_regimes"]
    if args.format in ("csv", "both"):
        _write_csv(out_dir / "report.csv", summary, n_regimes, args.timing)
    if args.format in ("json", "both"):
        _write_json(out_dir / "report.json", summary, cfg_digest)
    for i, li in enumerate(summary.learners):
        for j, lj in enumerate(summary.learners):
            if i < j:
                rate = summary.win_matrix[i, j]
                print(f"{li} beats {lj} on regime-1 retention in {_fmt(100 * rate)}% of seeds")
    return 0


# --- demo --------------------------------------------------------------


def cmd_demo_rls(args) -> int:
    rng = np.random.default_rng(7)
    cfg = RlsConfig(input_dim=3, output_dim=1, beta=1.0, delta=1.0)
    w_true = np.array([[1.5, -2.0, 0.5]])
    state = init_state(cfg)
    w = np.zeros((1, 3))
    print("20-step recursive estimation of a fixed 1x3 map (no noise)")
    print(f"ground truth: {np.array2string(w_true[0], precision=4)}")
    print(f"{'step':>4s} {'residual':>12s} {'|W - W*|':>12s}  estimate")
    for t in range(1, 21):
        x = rng.standard_normal(3)
        y = w_true @ x
        residual = float((w @ x - y)[0])
        w, state = rls_step(state, w, x, y)
        err = float(np.linalg.norm(w - w_true))
        print(
            f"{t:4d} {residual:12.6f} {err:12.6f}  "
            f"{np.array2string(w[0], precision=4, suppress_small=True)}"
        )
    print("estimate converges to the ground truth as the regularizer washes out")
    return 0


# --- entry point -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlsol",
        description="recursive least-squares aided online learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run acceptance criteria 1-6")

    p_bench = sub.add_parser("bench", help="drift benchmark commands")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_run = bench_sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", help="path to a key=value config file")
    p_run.add_argument("--seeds", type=int, default=None, help="override n_seeds")
    p_run.add_argument("--out", default="bench_out", help="output directory")
    p_run.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p_run.add_argument(
        "--timing", action="store_true", help="record wall times (breaks byte determinism)"
    )

    p_demo = sub.add_parser("demo", help="annotated demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    demo_sub.add_parser("rls", help="20-step recursion trace")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(err.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench_run(args)
        return cmd_demo_rls(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RlsolError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
