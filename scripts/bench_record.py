#!/usr/bin/env python3
"""Record two sets of benchmark results as one BENCH_*.json file.

    python3 scripts/bench_record.py BASE NEW --out BENCH_11.json \
        [--base-commit REV] [--new-commit REV]

BASE and NEW are directories (or single files) of result files written by
bench/run.py, read with bench/compare.py's `load`.  For each workload and
metric the file holds both sides' quartiles (`bench/compare.py`'s
`quartiles`), their number of runs, and the change of the medians as a
share of the base median, signed so that a positive share is a change for
the worse.  Per-layer metrics come from the traced runs among the files.
Provenance: the two commits, Python, numpy, its BLAS and the BLAS thread
count that a benchmark run sees.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402,F401  (pins the BLAS thread variables as a benchmark run does)
from compare import load, quartiles  # noqa: E402

import numpy as np  # noqa: E402

# thread-count getters of the OpenBLAS builds numpy ships with
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas_threads():
    """The OpenBLAS thread count in this process, or None if not found."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dirs = [blas.get("lib directory", ""), str(Path(np.__file__).parent.parent / "numpy.libs")]
    for path in (f for d in dirs for f in glob.glob(os.path.join(d, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def git_commit(rev: str) -> str:
    done = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or rev


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record two sets of bench/run.py results as JSON")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--base-commit", default="HEAD~1", help="commit the BASE runs were taken on")
    ap.add_argument("--new-commit", default="HEAD", help="commit the NEW runs were taken on")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "provenance": {
            "base_commit": git_commit(args.base_commit),
            "new_commit": git_commit(args.new_commit),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": {},
    }
    for workload, name in sorted(base.keys() & new.keys()):
        m = info.get(name, {"better": "lower"})
        b, n = quartiles(base[workload, name]), quartiles(new[workload, name])
        sign = 1 if m["better"] == "lower" else -1
        entry = {
            "unit": m.get("unit"),
            "better": m["better"],
            "base": {"q1": b[0], "median": b[1], "q3": b[2], "runs": len(base[workload, name])},
            "new": {"q1": n[0], "median": n[1], "q3": n[2], "runs": len(new[workload, name])},
            "worse_by": sign * (n[1] - b[1]) / b[1] if b[1] else 0.0,
        }
        if "bound" in m:
            entry["bound"] = m["bound"]
        record["workloads"].setdefault(workload, {})[name] = entry
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
