#!/usr/bin/env python3
"""End-to-end non-embedding certificate.

Searches the certified Gamma_k I cap T_n word family for a regluing
whose compressed boundary vector vanishes mod J, then emits the full
obstruction report against a closed target (default S^3) and re-derives
every residue from scratch.
"""

import argparse
import json
import shlex
import sys

sys.path.insert(0, "src")

from qtop.cli import report_errors
from qtop.cyclotomic import ResidueSpec
from qtop.manifolds import BoundedHeegaard, parse_desc
from qtop.mcg import parse_word
from qtop.obstruct import obstruct_embedding, rederive_report, twist_search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--q", type=int, default=41)
    ap.add_argument("--target", default="s3")
    ap.add_argument("--boundary-genus", type=int, default=0, choices=(0, 1))
    ap.add_argument("--word", default="1", help="base gluing word (genus 2)")
    ap.add_argument("--n", type=int, default=3, help="twist power class T_n")
    ap.add_argument("--k", type=int, default=1, help="lower central series depth")
    ap.add_argument("--budget", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    base = BoundedHeegaard(2, args.boundary_genus, parse_word(2, args.word))
    r = ResidueSpec.for_primes(args.p, args.q)
    result = twist_search(base, args.p, r, budget=args.budget, seed=args.seed,
                          n=args.n, k=args.k)
    if not result.found:
        print(f"NOT_FOUND after {result.samples} samples "
              f"({result.distinct_images} distinct mod-J images)", file=sys.stderr)
        raise SystemExit(1)
    print(f"# found after {result.samples} samples; word length "
          f"{len(result.word.letters)}; certificate terms: "
          f"{result.certificate.count('.') + 1}", file=sys.stderr)
    candidate = BoundedHeegaard(2, args.boundary_genus, result.full_word)
    report = obstruct_embedding(candidate, parse_desc(args.target), args.p, [args.q])
    doc = report.to_json()
    doc["rederived"] = rederive_report(report)
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    sys.exit(report_errors(main, shlex.join(sys.argv)))
