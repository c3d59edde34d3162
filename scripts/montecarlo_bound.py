#!/usr/bin/env python3
"""Monte Carlo reproduction of the non-embedding probability bound.

Runs the vanishing-frequency experiment for a genus-2 compression at
several walk lengths and prints the drift toward the exact hyperplane
probability (q^m - 1)/(q^n - 1) for the measured kernel dimension.
"""

import argparse
import shlex
import sys

sys.path.insert(0, "src")

from qtop.cli import report_errors
from qtop.cyclotomic import ResidueSpec
from qtop.manifolds import BoundedHeegaard
from qtop.mcg import parse_word
from qtop.walks import default_subgroup_walk, montecarlo_vanishing


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--q", type=int, default=41)
    ap.add_argument("--boundary-genus", type=int, default=0, choices=(0, 1))
    ap.add_argument("--word", default="1", help="base gluing word (genus 2)")
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--lengths", default="25,50,100,200")
    args = ap.parse_args()

    desc = BoundedHeegaard(2, args.boundary_genus, parse_word(2, args.word))
    r = ResidueSpec.for_primes(args.p, args.q)
    print("d,frequency,exact,gap,three_sigma")
    for d in (int(tok) for tok in args.lengths.split(",")):
        spec = default_subgroup_walk(args.p, d, args.seed)
        rep = montecarlo_vanishing(desc, args.p, r, spec, args.trials)
        f, e = float(rep.frequency), float(rep.exact_probability)
        print(f"{d},{f:.6f},{e:.6f},{abs(f - e):.6f},{rep.radius3sigma:.6f}")
    print(
        f"# kernel dim {rep.kernel_dim} of {rep.space_dim}; exact probability "
        f"{rep.exact_probability} = {float(rep.exact_probability):.6f}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(report_errors(main, shlex.join(sys.argv)))
