"""Each workload runs a couple of operations and passes its checks, and
each check rejects a deliberately corrupted output.

Run with `python3 -m pytest -q bench/tests` from the repository root;
the project's own test run does not collect these.
"""

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads
from qtop import cyclotomic, manifolds, mcg

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _has(problems, text):
    return any(text in msg for msg in problems)


# -- oracles ------------------------------------------------------------------


def test_oracles_against_known_values():
    assert oracles.smallest_root(5, 41) == cyclotomic.ResidueSpec.for_primes(5, 41).root
    assert len(oracles.dumbbell_colourings(5)) == 5
    assert len(oracles.dumbbell_colourings(7)) == 14
    assert len(oracles.dumbbell_colourings(11)) == 55
    # lens space L(5, 1): H1 = Z/5, so |Hom(H1, Z/10)| / 10 = 5 / 10
    assert oracles.dw_cyclic(0, (5,), 10) == Fraction(1, 2)
    # the norm of 2 in a field of degree 12 is 2^12
    assert oracles.p_free_norm([2] + [0] * 11, 7) == 2 ** 12
    lo, hi = oracles.binomial_bounds(1000, 0.01)
    assert 0 <= lo < 10 < hi < 1000


# -- exact --------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact():
    work = workloads.Exact(seed=3, n_ops=2)
    rng = random.Random(0)
    while True:  # one operation whose gluing is a rational homology sphere, p not dividing |H1|
        word = workloads.balanced_word(rng)
        rank, torsion = manifolds.homology_of(manifolds.HeegaardGluing(2, word))
        if rank == 0 and math.prod(torsion) % work.p:
            break
    ops = work.ops + [workloads.ExactOp(word, 4)]
    return work, [(op, work.run(op)) for op in ops]


def test_exact_operations_pass_their_checks(exact):
    work, done = exact
    for op, out in done:
        assert work.check(op, out) == []


def _with(out, kind, **changes):
    copy = dict(out)
    copy[kind] = dict(out[kind], **changes)
    return copy


def test_exact_checks_reject_corrupted_outputs(exact):
    work, done = exact
    op, out = done[-1]
    rt = out["gluing"]["rt"]
    tripled = _with(out, "gluing", rt=rt * 3)
    assert _has(work.check(op, tripled), "Murakami")
    assert _has(work.check(op, tripled), "ideal index")
    bumped = list(rt.coeffs)
    bumped[0] += 1
    changed = cyclotomic.CycElem.make(work.p, bumped, rt.e)
    assert _has(work.check(op, _with(out, "gluing", rt=changed)), "ideal index")
    dw = out["torus"]["dw_cyclic"]
    assert _has(work.check(op, _with(out, "torus", dw_cyclic=dw + 1)), "DW over Z/4")
    trace = out["torus"]["rt"]
    assert _has(work.check(op, _with(out, "torus", rt=trace + 1)), "rotation")


# -- search -------------------------------------------------------------------


@pytest.fixture(scope="module")
def search():
    work = workloads.Search(seed=1, n_ops=2)
    return work, [(op, work.run(op)) for op in work.ops]


def test_search_operations_pass_their_checks(search):
    work, done = search
    for op, out in done:
        assert work.check(op, out) == []


def _with_entry(report, **changes):
    cert = list(report.certificate)
    cert[-1] = dict(cert[-1], **changes)
    return dataclasses.replace(report, certificate=tuple(cert))


def test_search_checks_reject_corrupted_outputs(search):
    work, done = search
    op, (found, report, rederived) = done[0]
    entry = report.certificate[-1]
    flipped = [1] + list(entry["nVector"][1:])
    assert _has(work.check(op, (found, _with_entry(report, nVector=flipped), rederived)), "does not vanish")
    assert _has(work.check(op, (found, _with_entry(report, mResidue=0), rederived)), "residue is zero")
    other_root = next(r for r in range(entry["root"] + 1, work.q) if oracles.multiplicative_order(r, work.q) == 4 * work.p)
    assert _has(work.check(op, (found, _with_entry(report, root=other_root), rederived)), "not the smallest")
    assert _has(work.check(op, (found, dataclasses.replace(report, verdict="NO_OBSTRUCTION_FOUND"), rederived)), "verdict")
    assert _has(work.check(op, (found, report, False)), "verdict")
    longer = found.full_word * mcg.letter(2, "c1")
    assert work.check(op, (dataclasses.replace(found, full_word=longer), report, rederived))
    moved = dataclasses.replace(report, candidate=manifolds.BoundedHeegaard(2, 0, longer))
    assert _has(work.check(op, (dataclasses.replace(found, full_word=longer), moved, rederived)), "exact letters")


# -- montecarlo ---------------------------------------------------------------


@pytest.fixture(scope="module")
def montecarlo():
    work = workloads.MonteCarlo(seed=1, n_ops=2)
    return work, [(op, work.run(op)) for op in work.ops]


def test_montecarlo_operations_pass_their_checks(montecarlo):
    work, done = montecarlo
    for op, out in done:
        assert work.check(op, out) == []
    assert work.check_run([out for _op, out in done]) == []


def test_montecarlo_checks_reject_corrupted_outputs(montecarlo):
    work, done = montecarlo
    op, (spec, report) = done[0]
    extra = dataclasses.replace(report, hits=report.hits + 1)
    assert _has(work.check(op, (spec, extra)), "frequency")
    assert _has(work.check(op, (spec, dataclasses.replace(report, space_dim=54))), "dimensions")
    wrong_p = dataclasses.replace(report, exact_probability=report.exact_probability * 2)
    assert _has(work.check(op, (spec, wrong_p)), "exact probability")
    all_hits = dataclasses.replace(report, hits=report.trials, frequency=Fraction(1))
    assert _has(work.check_run([(spec, all_hits), done[1][1]]), "binomial")
    assert report.hits > 0  # so that a hit can go missing
    for hits in (report.hits + 1, report.hits - 1):
        consistent = dataclasses.replace(report, hits=hits, frequency=Fraction(hits, report.trials))
        assert _has(work.check(op, (spec, consistent)), "replayed walk")


def test_montecarlo_hermitian_check_rejects_a_changed_coefficient(montecarlo):
    work, done = montecarlo
    op, out = done[0]
    letter = next(x for w in out[0].generators for x in w.letters if x[0] == "c3")
    key = (letter, work.r.root)
    saved = work._letters[key]
    try:
        corrupt = saved.copy()
        corrupt[0, 0] = (corrupt[0, 0] + 1) % work.q
        work._letters[key] = corrupt
        assert _has(work.check(op, out), "Hermitian")
    finally:
        work._letters[key] = saved
    assert np.array_equal(work._letters[key], saved)


# -- the runner ---------------------------------------------------------------


def _traced_search():
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "7", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, timeout=170,
    )
    return json.loads((BENCH / "out" / "search-seed7-trace1.json").read_text())


def test_traced_counts_repeat_exactly():
    first, second = _traced_search(), _traced_search()
    counts = [
        {k: v["value"] for k, v in rec["result"]["metrics"].items() if not k.endswith("_s")}
        for rec in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["obstruct.twist_search.calls"] == first["result"]["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
