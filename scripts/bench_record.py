#!/usr/bin/env python3
"""Record two sets of benchmark results as one BENCH_*.json file, or
compare fresh results against a committed one.

    python3 scripts/bench_record.py BASE NEW --out BENCH_13.json \
        [--base-commit REV] [--new-commit REV]
    python3 scripts/bench_record.py --against BENCH_13.json FRESH

BASE, NEW and FRESH are directories (or single files) of result files
written by bench/run.py, read with bench/compare.py's `load`.  For each
workload and metric the record holds both sides' quartiles
(`bench/compare.py`'s `quartiles`), their number of runs, and the change
of the medians as a share of the base median, signed so that a positive
share is a change for the worse.  Per-layer metrics come from the traced
runs among the files.  Provenance: the two commits, the seeds of each
side's untraced and traced runs, Python, numpy, its BLAS and the BLAS
thread count that a benchmark run sees.

With --against, FRESH is held to the recorded NEW side.  Counts repeat
exactly for the same seeds, so a per-layer count whose fresh median
differs from the recorded one is "COUNT MOVED", and the exit status is
then 1.  Timings are printed for information only, with no verdict: the
machine's speed drifts between days by more than the bounds, so timing
verdicts come only from alternating parent/change pairs run in one
session and compared by bench/compare.py.
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


def seeds(path: Path) -> dict:
    """{workload: {"trace0": [seeds], "trace1": [seeds]}} of the result files under path."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        record = json.loads(f.read_text())
        runs = out.setdefault(record["workload"], {"trace0": [], "trace1": []})
        runs[f"trace{record['trace']}"].append(record["seed"])
    return {workload: {k: sorted(v) for k, v in runs.items()} for workload, runs in out.items()}


def metric_info() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def against(bench: Path, fresh_path: Path) -> int:
    """Print FRESH against the NEW side of a committed record; 1 when a
    count moved."""
    recorded = json.loads(bench.read_text())["workloads"]
    fresh = load(fresh_path)
    moved = 0
    print(f"{'workload':<11} {'metric':<36} {'recorded q1/median/q3':>32} {'fresh q1/median/q3':>32} {'worse by':>9}  count")
    for workload, name in sorted(fresh.keys()):
        entry = recorded.get(workload, {}).get(name)
        if entry is None:
            continue
        old, values = entry["new"], fresh[workload, name]
        n = quartiles(values)
        sign = 1 if entry["better"] == "lower" else -1
        worse = sign * (n[1] - old["median"]) / old["median"] if old["median"] else 0.0
        verdict = ""
        if entry.get("unit") == "count":
            verdict = "same" if n[1] == old["median"] else "COUNT MOVED"
            moved += verdict == "COUNT MOVED"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        recorded_q = fmt.format(old["q1"], old["median"], old["q3"])
        print(f"{workload:<11} {name:<36} {recorded_q:>32} {fmt.format(*n):>32} {worse:>+9.1%}  {verdict}")
    return 1 if moved else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record two sets of bench/run.py results as JSON")
    ap.add_argument("base", type=Path, help="BASE results; with --against, the fresh results")
    ap.add_argument("new", type=Path, nargs="?")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path, help="a committed BENCH_*.json to compare fresh results with")
    ap.add_argument("--base-commit", default="HEAD~1", help="commit the BASE runs were taken on")
    ap.add_argument("--new-commit", default="HEAD", help="commit the NEW runs were taken on")
    args = ap.parse_args(argv)
    if args.against:
        if args.new or args.out:
            ap.error("--against takes one set of fresh results and writes nothing")
        return against(args.against, args.base)
    if not (args.new and args.out):
        ap.error("recording needs BASE, NEW and --out")
    info = metric_info()
    base, new = load(args.base), load(args.new)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "provenance": {
            "base_commit": git_commit(args.base_commit),
            "new_commit": git_commit(args.new_commit),
            "seeds": {"base": seeds(args.base), "new": seeds(args.new)},
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
