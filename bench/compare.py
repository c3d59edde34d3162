"""Compare two sets of benchmark result files.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories (or single files) of result files written
by bench/run.py (bench/out/<workload>-seed<n>-trace<t>.json).  For each
workload and metric it prints each side's median and quartiles, and the
change of the medians as a share of the base median, signed so that a
positive share is a change for the worse.  End-to-end metrics are held
to their bound from BENCHMARK.json: "REGRESSION" when NEW is worse by
more than the bound, "unresolved" when the base's own spread is wider
than the bound (unless every NEW run beats every BASE run).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{(workload, metric): [values]} from the result files under path."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    values: dict = {}
    for f in files:
        record = json.loads(f.read_text())
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of bench/run.py result files")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressions = 0
    print(f"{'workload':<11} {'metric':<36} {'base q1/median/q3':>32} {'new q1/median/q3':>32} {'worse by':>9}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        m = info.get(name, {"better": "lower"})
        b, n = quartiles(base[key]), quartiles(new[key])
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (n[1] - b[1]) / b[1] if b[1] else 0.0
        verdict = ""
        if "bound" in m:
            spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
            all_better = all(sign * x < sign * y for x in new[key] for y in base[key])
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = f"ok (bound {m['bound']:.0%})"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:<11} {name:<36} {fmt.format(*b):>32} {fmt.format(*n):>32} {worse:>+9.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
