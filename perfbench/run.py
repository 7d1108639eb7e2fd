"""Benchmark entry point: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src``, as the
test suite does, without an install. Each measured run of a workload is a
process of its own (``worker.py``), started one after another until
``--seconds`` are used, so set-up time and peak memory are those of one
workload process. End-to-end metrics are medians over those processes.
``steps_per_s`` is the wall-clock rate times the machine's slowdown: the
mean of two passes of the workload's reference loop (``calibrate.py``), each
in a fresh process of its own, run just before the workload process starts
and just after it has ended. That is the rate at the loop's nominal speed.
``setup_s`` is likewise divided by the slowdown of a set-up loop run in the
first of those processes. The loops never share a process with the library
or with each other's leftovers, so nothing the library leaves behind can
change them. This process, and so every process it starts, is pinned to one
CPU, so the loops measure the CPU the calls run on. The plain wall-clock
rate and set-up time, and each process's slowdowns, are printed with the
environment record.

With ``--trace 1``, untraced and traced processes alternate; the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the median
traced call time minus the median untraced one, both at nominal speed.
Every process, traced or not, checks its outputs against ``refs.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--workload all`` (the default) every workload runs in turn and metric
names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
# A run never starts a process that would, at the mean process time so far,
# end after this many seconds.
RUN_LIMIT_S = 160.0
# ``tail_ms`` is the slowest call of the first this-many traced processes,
# the fewest a traced run has, so its pool does not grow with speed.
TAIL_PROCESSES = 2


class BenchmarkError(Exception):
    """The benchmark itself could not measure (not a failed operation)."""


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _run(cmd: list[str], what: str) -> dict:
    """Run one benchmark process with BLAS pinned to one thread; return the
    JSON object on the last line of its output."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{what} exceeded {CHILD_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{what} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def _spawn(workload: str, seed: int, traced: bool, out: Path, timed: list[str]) -> dict:
    calibration = [sys.executable, str(HERE / "calibrate.py"), workload]
    before = _run(calibration + ["setup"], "calibration")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--t0", repr(t0), "--out", str(out), "--timed", ",".join(timed),
    ]
    record = _run(cmd, f"{workload} worker")
    after = _run(calibration, "calibration")
    record.update(
        traced=traced,
        setup_slowdown=before["setup"],
        slowdown=(before["loop"] + after["loop"]) / 2.0,
        slowdown_before=before["loop"],
        slowdown_after=after["loop"],
    )
    return record


def _layer_metrics(spec: dict, records: list[dict]) -> dict:
    """Per-layer numbers from the traced processes. Times are divided by
    each process's slowdown, like ``steps_per_s``."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = statistics.median(r["wall_s"] / r["slowdown"] for r in traced) - (
                statistics.median(r["wall_s"] / r["slowdown"] for r in plain)
            )
        else:
            fn, stat = name.rsplit(".", 1)
            if stat in ("p50_ms", "tail_ms"):
                pool = traced if stat == "p50_ms" else traced[:TAIL_PROCESSES]
                calls = [d / r["slowdown"] for r in pool for d in r["layers"][f"{fn}.durations_ms"]]
                if not calls:
                    value = 0.0
                elif stat == "p50_ms":
                    value = statistics.median(calls)
                else:
                    value = max(calls)
            elif stat.endswith("_s"):
                value = statistics.median(r["layers"][name] / r["slowdown"] for r in traced)
            else:  # a count or a ratio: the same in every traced process
                value = statistics.median_low(r["layers"][name] for r in traced)
        values[name] = value
    return values


def _end_to_end_metrics(records: list[dict], attempted: int, failed: int) -> dict:
    losses = [r["final_loss"] for r in records if r["final_loss"] == r["final_loss"]]
    return {
        "setup_s": statistics.median(r["setup_s"] / r["setup_slowdown"] for r in records),
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] * r["slowdown"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "final_loss": statistics.median(losses) if losses else None,
        "ok_share": (attempted - failed) / attempted,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = HERE / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    timed = sorted(
        {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
         if m["name"].endswith(("p50_ms", "tail_ms"))}
    )
    steal_before = _steal_ticks()
    start = time.monotonic()
    records: list[dict] = []
    # at least three processes; when tracing, untraced and traced alternate
    # and there are at least two of each
    minimum = 4 if trace else 3
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(_spawn(workload, seed, traced, out, timed))
        elapsed = time.monotonic() - start
        mean = elapsed / len(records)
        if elapsed + mean > RUN_LIMIT_S:
            break
        if len(records) >= minimum and elapsed + mean > seconds:
            break
    steal_after = _steal_ticks()

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = sorted({p for r in records for p in r["problems"]})
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = _layer_metrics(spec, records)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = _end_to_end_metrics(records, attempted, failed)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    env = dict(records[0]["env"])
    env.update(
        wall_steps_per_s=statistics.median(r["steps"] / r["wall_s"] for r in records),
        wall_setup_s=statistics.median(r["setup_s"] for r in records),
        setup_slowdowns=[round(r["setup_slowdown"], 4) for r in records],
        slowdowns_before=[round(r["slowdown_before"], 4) for r in records],
        slowdowns_after=[round(r["slowdown_after"], 4) for r in records],
        probe_errors=sum(r["layers"]["trace.probe_errors"] for r in records if r["traced"]),
        nproc=os.cpu_count(),
        processes=len(records),
        pool_input=records[0]["k"],
        steal_ticks=None if steal_before is None else steal_after - steal_before,
        elapsed_s=time.monotonic() - start,
    )
    (out / ("env-trace.json" if trace else "env.json")).write_text(json.dumps(env, indent=1) + "\n")
    print(f"{workload} env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value!r} {units[name]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rlsol" / "__init__.py").is_file():
        print(f"error: no rlsol package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and the workload processes it starts, so the
    # reference loops measure the CPU the timed calls run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    selected = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace)) for w in selected}
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
