"""Record the reference outputs in ``refs.json`` for every pool input.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_refs.py [workload ...]

With workload names, only those entries are replaced.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

REFS = Path(__file__).resolve().parent / "refs.json"


def record(name: str) -> dict:
    wl = workloads.WORKLOADS[name]
    entries = {}
    for k in range(workloads.POOL_SIZE):
        scratch = Path(tempfile.mkdtemp(prefix="perfbench-refs-"))
        try:
            prep = wl.prepare(k, scratch)
            out = wl.outputs(prep, wl.run(prep))
        finally:
            shutil.rmtree(scratch)
        entries[str(k)] = out
        print(name, k, out["final_loss"], file=sys.stderr, flush=True)
    return entries


def main(names: list[str]) -> None:
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        refs[name] = record(name)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
