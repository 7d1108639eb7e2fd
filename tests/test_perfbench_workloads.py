"""The benchmark workloads still run against the library.

``perfbench/workloads.py`` builds its inputs from the library's session and
config types, so a changed field or function breaks the benchmark, and a
change of session numerics breaks its reference outputs in
``perfbench/refs.json``. The two session workloads are run on pool input 0,
the conv session also on inputs 7 and 15, and checked against their
references. The drift workloads run on pool input 0 too, and the canonical
one also on input 9, but their report digests depend on the BLAS build, so
they skip unless numpy and the BLAS core are the recorded ones (the
``recorded_blas`` fixture).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _check_reference(workloads, tmp_path, name, k):
    ref = json.loads((PERFBENCH / "refs.json").read_text())[name][str(k)]
    workload = workloads.WORKLOADS[name]
    prep = workload.prepare(k, tmp_path)
    failed, _, problems = workload.check(prep, workload.run(prep), ref)
    assert problems == []
    assert failed == 0


@pytest.mark.parametrize("name", ["mlp-session", "conv-session"])
def test_session_workload_matches_reference(workloads, tmp_path, name):
    _check_reference(workloads, tmp_path, name, 0)


# two more pool inputs for the conv session, whose kernel contractions run
# through strided tap views
@pytest.mark.parametrize("k", [7, 15])
def test_conv_session_matches_reference_at_more_inputs(workloads, tmp_path, k):
    _check_reference(workloads, tmp_path, "conv-session", k)


@pytest.mark.parametrize("name", ["drift-canonical", "drift-wide"])
def test_drift_workload_prepares(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    assert workload.steps(workload.prepare(0, tmp_path)) > 0


# the only tier-1 check of the p = 256 drift bits (drift-wide)
@pytest.mark.parametrize("name", ["drift-canonical", "drift-wide"])
def test_drift_workload_matches_reference(workloads, tmp_path, name, recorded_blas):
    _check_reference(workloads, tmp_path, name, 0)


# a second canonical pool input, whose seeds draw other streams
def test_drift_canonical_matches_reference_at_second_input(workloads, tmp_path, recorded_blas):
    _check_reference(workloads, tmp_path, "drift-canonical", 9)
