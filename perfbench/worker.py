"""One measured run of one workload, in a process of its own.

Started by ``run.py``; prints one JSON line with the set-up time (from the
parent's clock reading just before it started this process), the wall time
of the timed call, the output check, the peak resident set and, when
traced, the per-layer numbers.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and through the parent's
# environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def _import_package():
    """Import ``rlsol`` from the checkout's ``src``, as the test suite does,
    and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import rlsol

    if Path(rlsol.__file__).resolve().parent != ROOT / "src" / "rlsol":
        raise SystemExit(f"imported rlsol from {rlsol.__file__}, not from {ROOT / 'src'}")
    return rlsol


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--timed", default="", help="comma-separated names needing per-call times")
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    k = args.seed % workloads.POOL_SIZE
    scratch = Path(args.out) / f"work-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    prep = wl.prepare(k, scratch)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - args.t0
    start = time.perf_counter()
    try:
        result = wl.run(prep)
    except Exception as err:  # an op that raises is a failed op, not a crash
        traceback.print_exc()
        result = err
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    ref = json.loads((HERE / "refs.json").read_text())[args.workload][str(k)]
    if isinstance(result, Exception):
        failed, loss, problems = wl.ops(prep), float("nan"), [f"raised {result!r}"]
    else:
        try:
            failed, loss, problems = wl.check(prep, result, ref)
        except Exception as err:  # e.g. a report the call did not write
            traceback.print_exc()
            failed, loss, problems = wl.ops(prep), float("nan"), [f"check raised {err!r}"]
    record = {
        "k": k,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps": wl.steps(prep),
        "ops": wl.ops(prep),
        "failed": failed,
        "final_loss": loss,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(),
    }
    if tracer is not None:
        record["layers"] = tracer.stats(set(filter(None, args.timed.split(","))))
        tracer.write_spans(Path(args.out) / "spans.jsonl", start)
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
