"""The behavioural anchor: ``rlsol bench run`` on the shipped canonical.cfg,
on the criterion-10 config and on a classification config through every
learner kind writes reports with the digests below.

The JSON digest is taken with ``metadata.package_version`` dropped: it reads
"unknown" from a source checkout and the version when installed. The
digests were recorded with the numpy and BLAS core of the ``recorded_blas``
fixture (``conftest.py``); another numpy or BLAS core may round
differently, so the test skips there, naming what differs.
"""

import hashlib
import json

import pytest

from rlsol.cli import main

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_report_digests(name, tmp_path, capsys, recorded_blas):
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
