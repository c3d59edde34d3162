"""Regenerate the ROADMAP Baseline table.

    python3 bench/baseline.py [--primes 5 7 11]

Rows: building all six genus-2 twist conjugators (exact), the exact rho
of the length-20 word random_word(2, 20, seed=0) with the conjugators
built, and three CLI commands at p = 5 and 7 (q the first residue prime
q = 1 mod 4p).  Each figure is the median wall time of REPEATS fresh
processes.  Add 13 to --primes for the p = 13 column, which takes
minutes.  Prints a markdown table and writes bench/out/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_PRIMES = (5, 7)
REPEATS = 3  # fresh processes per figure


def exact_layers(p: int) -> dict:
    """Run in a fresh process: seconds for the conjugators, then for rho."""
    sys.path.insert(0, str(ROOT / "src"))
    from qtop import mcg, rep

    t0 = time.perf_counter()
    for curve in mcg.GENUS_CURVES[2]:
        rep._twist_conjugators(2, p, curve)
    t1 = time.perf_counter()
    rep.rho(mcg.random_word(2, 20, seed=0), p)
    t2 = time.perf_counter()
    return {"conjugators_s": t1 - t0, "rho20_s": t2 - t1}


def cli_rows(p: int, q: int) -> dict:
    return {
        "rep_check_s": ["rep", "check", "--genus", "2", "--p", str(p), "--q", str(q)],
        "obstruct_search_s": [
            "obstruct", "--candidate", "bounded:2:0:1", "--target", "s3",
            "--p", str(p), "--q", str(q), "--search", "--seed", "1",
        ],
        "walk_montecarlo_s": [
            "walk", "montecarlo", "--desc", "bounded:2:0:1", "--p", str(p), "--q", str(q),
            "--d", "200", "--trials", "2000", "--seed", "42",
        ],
    }


def timed(cmd, env=None) -> float:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=3600)
    elapsed = time.perf_counter() - t0
    if done.returncode not in (0, 1):  # obstruct exits 1 for NO_OBSTRUCTION_FOUND
        raise RuntimeError(f"{cmd} failed: {done.stderr.strip()}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate the ROADMAP Baseline table")
    ap.add_argument("--primes", type=int, nargs="+", default=[5, 7, 11])
    ap.add_argument("--exact-layers", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.exact_layers:
        print(json.dumps(exact_layers(args.exact_layers)))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    from qtop.cyclotomic import residue_primes

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    table: dict[str, dict[int, float]] = {}
    for p in args.primes:
        runs = []
        for _ in range(REPEATS):
            done = subprocess.run(
                [sys.executable, __file__, "--exact-layers", str(p)],
                capture_output=True, text=True, check=True, timeout=3600,
            )
            runs.append(json.loads(done.stdout))
        for key in runs[0]:
            table.setdefault(key, {})[p] = statistics.median(r[key] for r in runs)
        if p in CLI_PRIMES:
            q = residue_primes(p, 1)[0]
            for key, cmd in cli_rows(p, q).items():
                full = [sys.executable, "-m", "qtop.cli", *cmd]
                table.setdefault(key, {})[p] = statistics.median(timed(full, env) for _ in range(REPEATS))

    labels = {
        "conjugators_s": "build all six genus-2 twist conjugators (exact)",
        "rho20_s": "exact `rho` of `random_word(2, 20, seed=0)`",
        "rep_check_s": "`qtop rep check --genus 2 --q …` (CLI)",
        "obstruct_search_s": "`qtop obstruct … --search --seed 1` (CLI)",
        "walk_montecarlo_s": "`qtop walk montecarlo … --trials 2000` (CLI)",
    }
    print("| what | " + " | ".join(f"p={p}" for p in args.primes) + " |")
    print("|---|" + "---|" * len(args.primes))
    for key, label in labels.items():
        cells = [f"{table[key][p]:.3g} s" if p in table.get(key, {}) else "—" for p in args.primes]
        print(f"| {label} | " + " | ".join(cells) + " |")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    record = {"repeats": REPEATS, "table": {k: {str(p): v for p, v in row.items()} for k, row in table.items()}}
    (out / "baseline.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
