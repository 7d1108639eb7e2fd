"""The behavioural anchor: ``rlsol bench run`` on the shipped canonical.cfg,
on the criterion-10 config and on a classification config through every
learner kind writes reports with the digests below.

The JSON digest is taken with ``metadata.package_version`` dropped: it reads
"unknown" from a source checkout and the version when installed. The
digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 running its
SkylakeX kernels; another numpy or BLAS core may round differently, so the
test skips there, naming what differs.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rlsol.cli import main

NUMPY_VERSION = "2.4.6"
BLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"

# run name -> (config text or None for the shipped canonical.cfg, csv digest, json digest)
GOLDEN = {
    "canonical": (
        None,
        "fcc9070b779fcb54c76261531f7deb2ca29c7a61805deabc9394cd0a25f87de8",
        "ba462813cc526b2760757c73069fa05f7e477c27c9a2ba44e5352a1a0956931c",
    ),
    "criterion-10": (
        "input_dim = 8\nregime_blocks = 10\nholdout_size = 32\nn_seeds = 3\n",
        "52a0c9fe794f8eaea08d1eb18f1bff996804246bd838faafb1936fea5a87e4be",
        "b6f68b91f409304bfb91854f1746d15bc6cfb4af24f7109387ee1a2fb4ca573f",
    ),
    # every learner kind; at block_size = 4 mbsgd's first batch is clipped
    # to the rows the window holds
    "every-learner": (
        "kind = rotating_gaussian_classification\noutput_dim = 3\nnoise_sigma = 0.5\n"
        "block_size = 4\nn_seeds = 3\nlearners = plain_bgd,ema:0.3,mbsgd,rls_precond,exact_rls\n",
        "936211d129d080b5b78156b052461df164fb218f9794be945a2e091eaf88203d",
        "6154898a448079d9011b3996999992a41fd44364643d74daa31d85ae83db5705",
    ),
}


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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_report_digests(name, tmp_path, capsys):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, running {np.__version__}")
    blas = _blas_config()
    if blas != BLAS_CONFIG:
        pytest.skip(f"digests recorded with BLAS {BLAS_CONFIG!r}, running {blas!r}")
    text, csv_digest, json_digest = GOLDEN[name]
    argv = ["bench", "run", "--out", str(tmp_path / "o")]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    del report["metadata"]["package_version"]
    assert _sha((tmp_path / "o" / "report.csv").read_bytes()) == csv_digest
    assert _sha((json.dumps(report, indent=2, sort_keys=True) + "\n").encode()) == json_digest
