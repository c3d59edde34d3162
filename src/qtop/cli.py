"""Command-line front end.

Subcommands: invariant rt | invariant dw | homology | obstruct | fkb |
walk mix | walk prob | walk montecarlo | rep check.

All reports are JSON by default, each stamped with schemaVersion 1 and
its command; exact rationals and cyclotomic coefficients are serialized
as strings.  Every random choice
flows from an explicit --seed.  The obstruct subcommand exits 0 when
OBSTRUCTED, 1 when NO_OBSTRUCTION_FOUND, 2 on error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from .cyclotomic import ResidueSpec, residue_primes
from .groups import FiniteGroupTable, builtin_group
from .manifolds import (
    BoundedHeegaard,
    DescError,
    GroupPresentation,
    desc_from_json,
    dw_invariant,
    dw_invariant_tqft,
    format_homology,
    homology_h1,
    homology_of,
    parse_desc,
    rt_closed,
)
from .mcg import GENUS_CURVES, parse_word, random_word
from .obstruct import fkb_ideal_closed, fkb_ideal_inner, obstruct_embedding, twist_search
from .rep import (
    algebra_span_dim,
    fq_is_scalar,
    fq_projective_order,
    hermitian_check,
    letter_matrix,
    rep_dim,
    rho,
)
from .pmatrix import PMatrix
from .walks import (
    WalkSpec,
    default_subgroup_walk,
    enumerate_group,
    hyperplane_prob,
    montecarlo_vanishing,
    tv_to_uniform,
)


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _load_desc(spec: str):
    try:
        if spec.startswith("@"):
            path = Path(spec[1:])
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise CliError(
                    "parse", f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            return desc_from_json(doc)
        return parse_desc(spec)
    except CliError:
        raise
    except Exception as exc:
        raise CliError("parse", f"bad manifold description {spec!r}: {exc}") from exc


def _load_group(spec: str) -> FiniteGroupTable:
    try:
        if spec.startswith("@"):
            path = Path(spec[1:])
            return FiniteGroupTable.from_csv(path.stem, path.read_text())
        return builtin_group(spec)
    except CliError:
        raise
    except Exception as exc:
        raise CliError("parse", f"bad group {spec!r}: {exc}") from exc


def _emit(args, doc: dict, csv_text: str | None = None) -> None:
    """Write a report, stamped with the envelope every JSON report carries."""
    doc = {**doc, "schemaVersion": 1, "command": args.name}
    if args.format == "csv":
        if csv_text is None:
            raise CliError("config", "this command has no CSV rendering")
        text = csv_text
    elif args.format == "text":
        text = doc.get("text", json.dumps(doc, sort_keys=True))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _cmd_invariant_rt(args) -> int:
    desc = _load_desc(args.desc)
    val = rt_closed(desc, args.p)
    doc = {
        "desc": str(desc),
        "p": args.p,
        "value": val.to_json(),
        "isZero": val.is_zero(),
        "anomaly": "defined up to a power of the Gauss-sum unit kappa(p)",
        "text": f"RT_{args.p}({desc}) = {val}",
    }
    if args.q:
        r = ResidueSpec.for_primes(args.p, args.q)
        doc["qResidue"] = {"q": args.q, "root": r.root, "value": r.reduce(val)}
    _emit(args, doc)
    return 0


def _cmd_invariant_dw(args) -> int:
    desc = _load_desc(args.desc)
    G = _load_group(args.group)
    val = dw_invariant(desc, G, budget=args.budget)
    doc = {
        "desc": str(desc),
        "group": G.name,
        "groupOrder": G.order,
        "value": str(val),
        "valueFloat": float(val),
        "text": str(val),
    }
    try:
        doc["tqftValue"] = str(dw_invariant_tqft(desc, G))
    except DescError:  # the TQFT route covers genus-1 descriptions only
        pass
    _emit(args, doc)
    return 0


def _cmd_homology(args) -> int:
    if args.pres is not None:
        pres = GroupPresentation.parse(args.pres)
        rank, torsion = homology_h1(pres)
        name = str(pres)
    else:
        desc = _load_desc(args.desc)
        rank, torsion = homology_of(desc)
        name = str(desc)
    doc = {
        "input": name,
        "rank": rank,
        "torsion": list(torsion),
        "text": format_homology(rank, torsion),
    }
    _emit(args, doc)
    return 0


def _cmd_obstruct(args) -> int:
    candidate = _load_desc(args.candidate)
    target = _load_desc(args.target)
    qs = [int(tok) for tok in args.q.split(",")] if args.q else None
    if args.search:
        r = ResidueSpec.for_primes(args.p, (qs or residue_primes(args.p))[0])
        if not isinstance(candidate, BoundedHeegaard):
            raise CliError("usage", "--search needs a bounded candidate")
        found = twist_search(
            candidate, args.p, r, budget=args.budget, seed=args.seed
        )
        if not found.found:
            raise CliError("search", f"no vanishing word within budget {args.budget}")
        candidate = BoundedHeegaard(candidate.genus, candidate.boundary_genus, found.full_word)
    report = obstruct_embedding(candidate, target, args.p, qs)
    doc = report.to_json()
    doc["text"] = report.verdict
    _emit(args, doc)
    return 0 if report.verdict == "OBSTRUCTED" else 1


def _cmd_fkb(args) -> int:
    desc = _load_desc(args.desc)
    if isinstance(desc, BoundedHeegaard):
        rep = fkb_ideal_inner(desc, args.p, args.budget)
        ideal = rep.ideal
        doc = {
            "kind": "inner-approximation",
            "budget": rep.budget,
            "stabilized": rep.stabilized,
            "text": f"inner FKB ideal at budget {rep.budget}: "
            + ("full" if ideal.is_full() else f"index {ideal.index()}"),
        }
    else:
        ideal = fkb_ideal_closed(desc, args.p)
        doc = {
            "kind": "closed",
            "text": "full ideal" if ideal.is_full() else f"proper ideal, index {ideal.index()}",
        }
    doc.update(
        desc=str(desc),
        p=args.p,
        isFull=ideal.is_full(),
        isZero=ideal.is_zero,
        latticeIndex=str(ideal.index()),
        rows=ideal.to_json()["rows"],
    )
    _emit(args, doc)
    return 0


def _psl2_generators(q: int):
    rows = ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, q - 1], [0, 1]], [[1, 0], [q - 1, 1]])
    return tuple(np.array(g) for g in rows)


def _cmd_walk_mix(args) -> int:
    if not args.group.startswith("psl2:"):
        raise CliError("usage", "supported groups: psl2:<q>")
    q = int(args.group.split(":")[1])
    gens = _psl2_generators(q)
    closure = enumerate_group(gens, q, cap=args.cap)
    if not closure.complete:
        raise CliError("budget", f"group closure exceeded cap {args.cap}")
    spec = WalkSpec.uniform(gens, args.steps, 0)  # the exact law draws nothing
    report = tv_to_uniform(spec, closure, q, lazy=not args.raw)
    doc = report.to_json()
    doc["text"] = f"|G| = {report.group_order}, TV({args.steps}) = {float(report.final_tv()):.3e}"
    _emit(args, doc, csv_text=report.to_csv())
    return 0


def _cmd_walk_prob(args) -> int:
    result = hyperplane_prob(
        args.q, args.n, args.m, args.mode, trials=args.trials, seed=args.seed
    )
    if isinstance(result, dict):
        doc = {
            "mode": args.mode,
            "frequency": str(result["frequency"]),
            "radius3sigma": result["radius3sigma"],
            "formula": str(result["formula"]),
            "text": f"{result['frequency']} (formula {result['formula']})",
        }
    else:
        doc = {
            "mode": args.mode,
            "value": str(result),
            "valueFloat": float(result),
            "text": str(result),
        }
    _emit(args, doc)
    return 0


def _cmd_walk_montecarlo(args) -> int:
    desc = _load_desc(args.desc)
    if not isinstance(desc, BoundedHeegaard):
        raise CliError("usage", "montecarlo needs a bounded (compression) description")
    r = ResidueSpec.for_primes(args.p, args.q)
    spec = default_subgroup_walk(
        args.p, args.d, args.seed, n=args.walk_n, k=args.walk_k
    )
    report = montecarlo_vanishing(desc, args.p, r, spec, args.trials)
    doc = report.to_json()
    doc["text"] = (
        f"frequency {report.frequency} vs exact {report.exact_probability} "
        f"(kernel dim {report.kernel_dim})"
        if report.frequency is not None
        else "no trials"
    )
    _emit(args, doc)
    return 0


def _cmd_rep_check(args) -> int:
    p, genus = args.p, args.genus
    if args.words < 1:
        raise CliError("usage", "--words must be >= 1")
    curves = GENUS_CURVES[genus]
    mats = {c: letter_matrix(genus, p, c, 1) for c in curves}
    braid_pairs = (
        [("a", "b")]
        if genus == 1
        else [("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")]
    )
    commute_pairs = (
        []
        if genus == 1
        else [
            ("c1", "c3"), ("c1", "c4"), ("c1", "c5"), ("c2", "c4"),
            ("c2", "c5"), ("c3", "c5"), ("c1", "s"), ("c2", "s"),
            ("c4", "s"), ("c5", "s"),
        ]
    )
    braid_ok = all(
        (mats[x] * mats[y] * mats[x]).proj_equal(mats[y] * mats[x] * mats[y])
        for x, y in braid_pairs
    )
    commute_ok = all(
        (mats[x] * mats[y]).proj_equal(mats[y] * mats[x]) for x, y in commute_pairs
    )
    torder_ok = all(
        letter_matrix(genus, p, c, p).equal_exact(PMatrix.identity(p, rep_dim(genus, p)))
        for c in curves
    )
    herm_ok = all(
        hermitian_check(random_word(genus, 6, seed), p) for seed in range(args.words)
    )
    doc = {
        "genus": genus,
        "p": p,
        "dimension": rep_dim(genus, p),
        "braidRelations": braid_ok,
        "commutations": commute_ok,
        "twistOrderP": torder_ok,
        "hermitian": herm_ok,
    }
    if args.q:
        r = ResidueSpec.for_primes(p, args.q)
        words = [random_word(genus, 12, seed) for seed in range(args.words * 10)]
        span = algebra_span_dim(words, r)
        orders = []
        for seed in range(5):
            M = rho(random_word(genus, 10, 1000 + seed), r)
            orders.append(fq_projective_order(M, args.q, cap=5000))
        ts = rho(parse_word(genus, "s" if genus == 2 else "a"), r)
        doc["modQ"] = {
            "q": args.q,
            "algebraSpanDim": span,
            "fullMatrixAlgebra": span == rep_dim(genus, p) ** 2,
            "sampledProjectiveOrders": orders,
            "separatingTwistScalar": fq_is_scalar(ts, args.q),
        }
    ok = braid_ok and commute_ok and torder_ok and herm_ok
    doc["text"] = "all relations hold" if ok else "RELATION FAILURE"
    _emit(args, doc)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtop",
        description="Exact quantum invariants of 3-manifolds and embedding obstructions.",
    )
    ap.add_argument("--output", "-o", help="write the report to a file")
    ap.add_argument("--format", default="json", choices=("json", "csv", "text"))
    sub = ap.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="quantum and finite-group invariants")
    invsub = inv.add_subparsers(dest="subcommand", required=True)
    rt = invsub.add_parser("rt", help="SO(3) quantum invariant")
    rt.add_argument("--desc", required=True)
    rt.add_argument("--p", type=int, required=True)
    rt.add_argument("--q", type=int, help="also report the residue mod this prime")
    rt.set_defaults(func=_cmd_invariant_rt, name="invariant rt")
    dw = invsub.add_parser("dw", help="Dijkgraaf-Witten invariant")
    dw.add_argument("--desc", required=True)
    dw.add_argument("--group", required=True, help="builtin (Z2, Z3, S3, Q8, Z/n) or @table.csv")
    dw.add_argument(
        "--budget", type=int, default=2_000_000,
        help="the most states Hom(pi1 Sigma_2, G) of a genus-2 gluing or mapping torus, "
        "and the most search nodes of any other description",
    )
    dw.set_defaults(func=_cmd_invariant_dw, name="invariant dw")

    hom = sub.add_parser("homology", help="first homology from a presentation")
    hom_input = hom.add_mutually_exclusive_group(required=True)
    hom_input.add_argument("--desc")
    hom_input.add_argument("--pres", help='e.g. "gens: a b; rel: a b a B A"')
    hom.set_defaults(func=_cmd_homology, name="homology")

    ob = sub.add_parser("obstruct", help="embedding obstruction report")
    ob.add_argument("--candidate", required=True, help="the piece N (may be bounded)")
    ob.add_argument("--target", required=True, help="the closed ambient M")
    ob.add_argument("--p", type=int, required=True)
    ob.add_argument("--q", help="comma-separated residue primes (default: first five)")
    ob.add_argument("--search", action="store_true", help="search for a vanishing regluing first")
    ob.add_argument("--budget", type=int, default=2000)
    ob.add_argument("--seed", type=int, default=0)
    ob.set_defaults(func=_cmd_obstruct, name="obstruct")

    fkb = sub.add_parser("fkb", help="FKB ideal (closed) or inner approximation (bounded)")
    fkb.add_argument("--desc", required=True)
    fkb.add_argument("--p", type=int, required=True)
    fkb.add_argument("--budget", type=int, default=3)
    fkb.set_defaults(func=_cmd_fkb, name="fkb")

    walk = sub.add_parser("walk", help="stochastic lab")
    walksub = walk.add_subparsers(dest="subcommand", required=True)
    mix = walksub.add_parser("mix", help="exact mixing curve")
    mix.add_argument("--group", required=True, help="psl2:<q>")
    mix.add_argument("--steps", type=int, default=200)
    mix.add_argument("--raw", action="store_true", help="raw products instead of lazy")
    mix.add_argument("--cap", type=int, default=200_000)
    mix.set_defaults(func=_cmd_walk_mix, name="walk mix")
    prob = walksub.add_parser("prob", help="hyperplane hitting probability")
    prob.add_argument("--q", type=int, required=True)
    prob.add_argument("--n", type=int, required=True)
    prob.add_argument("--m", type=int, required=True)
    prob.add_argument("--mode", default="formula", choices=("formula", "enumerate", "sample"))
    prob.add_argument("--trials", type=int, default=1000)
    prob.add_argument("--seed", type=int, default=0)
    prob.set_defaults(func=_cmd_walk_prob, name="walk prob")
    mc = walksub.add_parser("montecarlo", help="vanishing frequency along subgroup walks")
    mc.add_argument("--desc", required=True, help="bounded description")
    mc.add_argument("--p", type=int, required=True)
    mc.add_argument("--q", type=int, required=True)
    mc.add_argument("--d", type=int, default=200, help="walk length")
    mc.add_argument("--trials", type=int, default=2000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--walk-n", type=int, default=3, help="twist power n of T_n")
    mc.add_argument("--walk-k", type=int, default=1, help="lower central series depth")
    mc.set_defaults(func=_cmd_walk_montecarlo, name="walk montecarlo")

    rep = sub.add_parser("rep", help="representation checks")
    repsub = rep.add_subparsers(dest="subcommand", required=True)
    check = repsub.add_parser("check", help="relation suite and mod-q evidence")
    check.add_argument("--genus", type=int, default=2, choices=(1, 2))
    check.add_argument("--p", type=int, required=True)
    check.add_argument("--q", type=int)
    check.add_argument("--words", type=int, default=20)
    check.set_defaults(func=_cmd_rep_check, name="rep check")

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    return report_errors(lambda: args.func(args), f"qtop {shlex.join(argv)}")


def report_errors(run, command: str):
    """run()'s result, or exit code 2 after one `error[<type>]: <message>`
    line on stderr if it raises; `command` names the input for an error
    without text.  The CLI and the scripts under scripts/ report through
    it."""
    try:
        return run()
    except CliError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # typed errors from the libraries
        # a bare MemoryError has no text: name the input instead
        message = str(exc) or f"no message, running {command}"
        print(f"error[{type(exc).__name__}]: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
