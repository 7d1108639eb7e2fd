import contextlib
import ctypes
import io
from pathlib import Path

import numpy as np
import pytest

from rlsol.cli import main

# the numpy and runtime OpenBLAS core that recorded the report digests of
# tests/test_golden_reports.py and the drift references of perfbench/refs.json
NUMPY_VERSION = "2.4.6"
BLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"


def _blas_config() -> str | None:
    """The configuration string of the OpenBLAS numpy loaded, read from the
    library at run time. It names the core whose kernels run, which the
    build record of ``numpy.show_config`` does not."""
    for path in sorted(Path(np.__file__).parent.with_suffix(".libs").glob("*openblas*")):
        get_config = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            return get_config().decode()
    return None


@pytest.fixture
def recorded_blas() -> None:
    """Skip, naming what differs, unless numpy and the BLAS core are the
    ones the bit-exact report digests were recorded with: another numpy or
    BLAS core may round differently."""
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, running {np.__version__}")
    blas = _blas_config()
    if blas != BLAS_CONFIG:
        pytest.skip(f"digests recorded with BLAS {BLAS_CONFIG!r}, running {blas!r}")


@pytest.fixture(scope="session")
def verify_run() -> tuple[int, str]:
    """Exit code and standard output of one full ``rlsol verify`` run.

    The run takes over a second, so the tests that need a green ``verify``
    share it.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, out.getvalue()
