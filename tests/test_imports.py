"""scipy is imported only when a factorization runs.

``rlsol.linalg`` imports scipy inside ``cholesky_lower`` and ``spd_solve``.
Each test runs its script in a fresh interpreter, so no module the test
process has already imported can hide an import, and the factorization in
the lazy-path scripts is the first one in that process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the names of the scipy modules loaded, as a JSON list, last
NO_SCIPY_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
)

SESSIONS = (
    "import json, sys\n"
    "import numpy as np\n"
    "import rlsol, rlsol.cli\n"
    "from rlsol.conv import ConvSessionConfig, ConvSessionEvent, init_conv_state\n"
    "from rlsol.mlp import Layer, SessionConfig, SessionEvent\n"
    # the shipped canonical.cfg is the default config
    "assert rlsol.cli.main(['bench', 'run', '--seeds', '1', '--out', sys.argv[1]]) == 0\n"
    "rng = np.random.default_rng(0)\n"
    "model = rlsol.MlpModel([Layer(rng.standard_normal((3, 4)), 'relu'), Layer(rng.standard_normal((1, 3)))])\n"
    "events = [\n"
    "    SessionEvent(t, -1.0 if t == 3 else 1.0,\n"
    "                 rlsol.SampleBlock(rng.standard_normal((2, 4)), rng.standard_normal((2, 1))))\n"
    "    for t in range(1, 7)\n"
    "]\n"
    "cfg = SessionConfig(rlsol.GdConfig(0.01, 1), rlsol.GdConfig(0.01, 1), regular_period=2)\n"
    "_, audit = rlsol.run_session(model, rlsol.init_bank(model), events, cfg)\n"
    "assert {'regular', 'occasional'} <= {kind for kind, _ in audit}, audit\n"
    "layer = rlsol.ConvLayer(rng.standard_normal((2, 2, 2)))\n"
    "conv_events = [\n"
    "    ConvSessionEvent(t, rlsol.WeightedSample(rlsol.FeatureMap(rng.standard_normal((2, 4, 4))),\n"
    "                                             rng.standard_normal((3, 3)), np.ones((3, 3))),\n"
    "                     hard_negative=t == 3)\n"
    "    for t in range(1, 5)\n"
    "]\n"
    "cfg = ConvSessionConfig(rlsol.GdConfig(0.01, 1), update_period=2)\n"
    "_, audit = rlsol.run_conv_session(layer, init_conv_state(layer), conv_events, cfg)\n"
    "assert [t for kind, t in audit if kind == 'update'] == [1, 3], audit\n"
) + NO_SCIPY_LOADED

# bad inputs to both entry points, each of which must raise its typed error
# before scipy is imported
BAD_INPUTS = (
    "import json, sys\n"
    "import numpy as np\n"
    "from rlsol.errors import DimensionError, InputError\n"
    "from rlsol.linalg import cholesky_lower, spd_solve\n"
    "nan = np.eye(3)\n"
    "nan[1, 1] = np.nan\n"
    "calls = [\n"
    "    (InputError, cholesky_lower, (nan,)),\n"
    "    (InputError, cholesky_lower, (np.array([[1.0, 0.5], [0.0, 1.0]]),)),\n"
    "    (DimensionError, cholesky_lower, (np.ones((2, 3)),)),\n"
    "    (InputError, spd_solve, (nan, np.eye(3))),\n"
    "    (InputError, spd_solve, (np.eye(3), np.full((3, 1), np.inf))),\n"
    "    (DimensionError, spd_solve, (np.ones((2, 3)), np.eye(2))),\n"
    "    (DimensionError, spd_solve, (np.eye(3), np.eye(2))),\n"
    "]\n"
    "for error, fn, args in calls:\n"
    "    try:\n"
    "        fn(*args)\n"
    "    except error:\n"
    "        pass\n"
    "    else:\n"
    "        raise AssertionError(f'{fn.__name__} accepted a bad input')\n"
) + NO_SCIPY_LOADED

# rank 2: the third column is the sum of the first two, so the third leading
# minor is exactly zero
FIRST_CHOLESKY = (
    "import numpy as np\n"
    "from rlsol.errors import FactorizationError\n"
    "from rlsol.linalg import cholesky_lower\n"
    "try:\n"
    "    cholesky_lower(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]))\n"
    "except FactorizationError as exc:\n"
    "    print(exc.pivot_index)\n"
)

FIRST_SOLVE = (
    "import sys\n"
    "import numpy as np\n"
    "from rlsol.linalg import spd_solve\n"
    "system = np.load(sys.argv[1])\n"
    "print(spd_solve(system['a'], system['b']).tobytes().hex())\n"
)


def _run(script: str, *args) -> list[str]:
    """Standard output lines of ``script`` run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_bench_and_session_runs_never_import_scipy(tmp_path):
    out = _run(SESSIONS, tmp_path / "bench")
    assert (tmp_path / "bench" / "report.json").is_file()
    assert json.loads(out[-1]) == []


def test_bad_inputs_raise_before_scipy_is_imported():
    assert json.loads(_run(BAD_INPUTS)[-1]) == []


def test_first_cholesky_reports_pivot():
    assert _run(FIRST_CHOLESKY) == ["2"]


def test_first_solve_matches_eager_scipy_solve(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6))
    a, b = m.T @ m + np.eye(6), rng.standard_normal((6, 2))
    np.savez(tmp_path / "system.npz", a=a, b=b)
    # the solve as written with scipy imported at module top
    low, info = dpotrf(a, lower=1, clean=1)
    assert info == 0
    want = solve_triangular(low.T, solve_triangular(low, b, lower=True), lower=False)
    assert _run(FIRST_SOLVE, tmp_path / "system.npz") == [want.tobytes().hex()]
