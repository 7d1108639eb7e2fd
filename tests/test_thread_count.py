"""Bench reports do not depend on the BLAS thread count.

One subprocess per OpenBLAS thread count (1, then 2) runs four configs
through ``cli.main``: the canonical config (p = 16, the full-matrix
precision update), p = 512 (the y y^T strip update), a classification
stream through every learner kind, and p = 64 seeds that run stacked. Every ``report.csv``/``report.json``
pair must then be byte-identical. Both subprocesses run on one machine, so
this holds for any BLAS build; CI runs it in its tier-1 step.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (run name, config text or None for the shipped canonical.cfg, seeds)
RUNS = (
    ("canonical", None, 5),
    ("wide", "input_dim = 512\nlearners = exact_rls,plain_bgd\n", 2),
    (
        "classes",
        "kind = rotating_gaussian_classification\noutput_dim = 3\nnoise_sigma = 0.5\n"
        "learners = plain_bgd,ema:0.3,mbsgd,rls_precond,exact_rls\n",
        3,
    ),
    # p = 64 streams small enough that three share a chunk: every stacked
    # product is (S, 64, .) with S > 1, where two threads may split it
    (
        "stacked",
        "input_dim = 64\nregime_blocks = 20\nholdout_size = 64\n"
        "learners = plain_bgd,ema:0.3,mbsgd,rls_precond,exact_rls\n",
        4,
    ),
)

# runs each argv list given as JSON; exits 1 on the first non-zero exit code
SCRIPT = (
    "import json, sys\n"
    "from rlsol.cli import main\n"
    "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))\n"
)


def test_reports_independent_of_blas_threads(tmp_path):
    configs = {}
    for name, text, _ in RUNS:
        if text is not None:
            configs[name] = tmp_path / f"{name}.cfg"
            configs[name].write_text(text)
    procs = []
    for threads in (1, 2):
        argvs = []
        for name, _, seeds in RUNS:
            argv = ["bench", "run", "--seeds", str(seeds), "--out", str(tmp_path / f"{name}-{threads}")]
            if name in configs:
                argv += ["--config", str(configs[name])]
            argvs.append(argv)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(SRC)}
        procs.append(
            subprocess.Popen(
                [sys.executable, "-W", "error", "-c", SCRIPT, json.dumps(argvs)],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
        )
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode()
    for name, _, _ in RUNS:
        for report in ("report.csv", "report.json"):
            one, two = tmp_path / f"{name}-1" / report, tmp_path / f"{name}-2" / report
            assert filecmp.cmp(one, two, shallow=False), f"{name} {report} differs"
