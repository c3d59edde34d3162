"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated tolerance.

Criterion 4 checks H. Murakami's congruence in its Legendre form: the
integrally-normalized lens invariants reduce to n^{(p-3)/2} mod p (which
is n at p = 5 and n^2 at p = 7), up to one global phase per prime; the
closed form behind the law is tested exactly in test_manifolds.py.
"""

import time
from fractions import Fraction

from qtop.cyclotomic import CycElem, ResidueSpec, elem_A, elem_u, eta
from qtop.groups import builtin_group
from qtop.manifolds import (
    BoundedHeegaard,
    DwTheory,
    HeegaardGluing,
    LensSurgery,
    MappingTorus,
    S3,
    dw_invariant,
    dw_invariant_tqft,
    murakami_check,
    rt_closed,
)
from qtop.mcg import empty_word, letter, parse_word, random_word
from qtop.obstruct import (
    fkb_ideal_closed,
    obstruct_embedding,
    rederive_report,
    twist_search,
)
from qtop.pmatrix import PMatrix
from qtop.rep import (
    algebra_span_dim,
    fq_is_scalar,
    hermitian_check,
    rep_dim,
    rho_mod,
    twist_power_matrix,
)
from qtop.skein import admissible, colors, t_matrix
from qtop.walks import (
    WalkSpec,
    default_subgroup_walk,
    enumerate_group,
    hyperplane_prob,
    montecarlo_vanishing,
    tv_to_uniform,
)


class Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.t0 = time.time()

    def finish(self, ok):
        dt = time.time() - self.t0
        status = "PASS" if ok else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({dt:.2f}s, limit {self.limit}s)")
        assert dt < self.limit, f"criterion {self.number} exceeded its runtime limit"
        assert ok, f"criterion {self.number} failed"


def test_criterion_01_twist_spectrum():
    c = Criterion(1, 1)
    ok = True
    for p in (5, 7):
        A = elem_A(p)
        T = t_matrix(p)
        want = [(-A) ** (i * i - 1) for i in range(1, (p - 1) // 2 + 1)]
        ok &= [T.entries[i][i] for i in range(T.n)] == want
        ok &= (T ** p).equal_exact(PMatrix.identity(p, T.n))
    c.finish(ok)


def test_criterion_02_unit_lemma():
    c = Criterion(2, 1)
    p, u = 5, elem_u(5)
    ok = True
    for q in (41, 61, 101):
        r = ResidueSpec.for_primes(p, q)
        for i in range(p):
            for j in range(i + 1, p):
                ok &= r.reduce(u ** i - u ** j) != 0
    prod = CycElem.one(p)
    for i in range(1, p):
        prod = prod * (CycElem.one(p) - u ** i)
    ok &= prod == CycElem.from_int(p, 5)
    c.finish(ok)


def test_criterion_03_eta_unit_and_fkb_s3():
    c = Criterion(3, 1)
    e = eta(5)
    ok = e * e.inv() == CycElem.one(5)
    ok &= fkb_ideal_closed(S3, 5).is_full()
    c.finish(ok)


def test_criterion_04_murakami_congruence():
    # RT/eta = eps * n^{(p-3)/2} mod (u - 1), one phase eps per prime (see
    # the module docstring and murakami_check).
    c = Criterion(4, 10)
    ok = True
    detail = []
    for p in (5, 7):
        signs = set()
        for n in range(1, 9):
            res = murakami_check(LensSurgery(n), p)
            detail.append((p, n, res["residue"], res["ok"], res["sign"]))
            if not res["ok"]:
                ok = False
            elif res["h1"] % p:
                signs.add(res["sign"])
        if len(signs) > 1:
            ok = False
    if not ok:
        print("  murakami detail (p, n, residue(a,bw), ok, sign):")
        for row in detail:
            print("   ", row)
    c.finish(ok)


def test_criterion_05_two_oracle_dijkgraaf_witten():
    c = Criterion(5, 30)
    groups = [builtin_group(n) for n in ("Z2", "Z3", "S3", "Q8")]
    ok = True
    for G in groups:
        for b in range(1, 7):
            ok &= dw_invariant(LensSurgery(b), G) == dw_invariant_tqft(LensSurgery(b), G)
        for seed in range(5):
            desc = MappingTorus(1, random_word(1, 6, seed))
            ok &= dw_invariant(desc, G) == dw_invariant_tqft(desc, G)
    c.finish(ok)


def test_criterion_06_tn_kernel_lemma():
    c = Criterion(6, 5)
    ok = True
    for name in ("Z2", "Z3", "S3", "Q8"):
        G = builtin_group(name)
        theory = DwTheory(G, 1)
        ident = list(range(theory.dim()))
        n = G.exponent
        ok &= theory.permutation(letter(1, "a", n)).tolist() == ident
        ok &= theory.permutation(letter(1, "b", n)).tolist() == ident
    c.finish(ok)


def test_criterion_07_genus2_relation_suite():
    c = Criterion(7, 30)
    p = 5
    M = {x: twist_power_matrix(2, p, x, 1) for x in ("c1", "c2", "c3", "c4", "c5", "s")}
    ok = True
    for x, y in (("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")):
        ok &= (M[x] * M[y] * M[x]).proj_equal(M[y] * M[x] * M[y])
    for x, y in (
        ("c1", "c3"), ("c1", "c4"), ("c1", "c5"), ("c2", "c4"), ("c2", "c5"),
        ("c3", "c5"), ("c1", "s"), ("c2", "s"), ("c4", "s"), ("c5", "s"),
    ):
        ok &= (M[x] * M[y]).proj_equal(M[y] * M[x])
    for seed in range(20):
        ok &= hermitian_check(random_word(2, 6, seed), p)
    count = sum(
        1
        for a in colors(p)
        for cc in colors(p)
        for b in colors(p)
        if admissible(p, a, a, cc) and admissible(p, b, b, cc)
    )
    ok &= count == 5 == rep_dim(2, 5)
    c.finish(ok)


def test_criterion_08_strong_approximation_evidence():
    c = Criterion(8, 60)
    r = ResidueSpec.for_primes(5, 41)
    words = [random_word(2, 12, seed) for seed in range(200)]
    span = algebra_span_dim(words, r)
    ts = rho_mod(letter(2, "s"), 5, r)
    ok = span == 25 and not fq_is_scalar(ts, 41)
    c.finish(ok)


def test_criterion_09_hyperplane_probability():
    c = Criterion(9, 60)
    ok = True
    for q, n, m in ((2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 3, 2)):
        ok &= hyperplane_prob(q, n, m, "enumerate") == Fraction(q ** m - 1, q ** n - 1)
    c.finish(ok)


def test_criterion_10_mixing():
    c = Criterion(10, 10)
    gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 4), (0, 1)), ((1, 0), (4, 1)))
    closure = enumerate_group(gens[:2], 5)
    report = tv_to_uniform(WalkSpec.uniform(gens, 200, 0), closure, 5, lazy=True)
    ok = report.group_order == 60
    ok &= any(t < Fraction(1, 100) for t in report.tv)
    ok &= report.nonincreasing()
    c.finish(ok)


def test_criterion_11_montecarlo_bound():
    c = Criterion(11, 600)
    r = ResidueSpec.for_primes(5, 41)
    desc = BoundedHeegaard(2, 0, empty_word(2))
    spec = default_subgroup_walk(5, 200, 42)
    report = montecarlo_vanishing(desc, 5, r, spec, 2000)
    gap = abs(float(report.frequency) - float(report.exact_probability))
    ok = report.kernel_dim == 4
    ok &= report.exact_probability == Fraction(41 ** 4 - 1, 41 ** 5 - 1)
    ok &= gap <= report.radius3sigma
    ok &= float(report.frequency) >= float(report.exact_probability) - report.radius3sigma
    print(
        f"  frequency {float(report.frequency):.5f} vs exact "
        f"{float(report.exact_probability):.5f} (3 sigma {report.radius3sigma:.5f})"
    )
    c.finish(ok)


def test_criterion_12_end_to_end_obstruction():
    c = Criterion(12, 300)
    r = ResidueSpec.for_primes(5, 41)
    found = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, r, budget=5000, seed=1)
    ok = found.found
    if ok:
        ok &= r.reduce(rt_closed(S3, 5)) != 0
        candidate = BoundedHeegaard(2, 0, found.full_word)
        report = obstruct_embedding(candidate, S3, 5, [41])
        ok &= report.verdict == "OBSTRUCTED"
        ok &= rederive_report(report)
    c.finish(ok)


def test_criterion_13_stabilization_sanity():
    c = Criterion(13, 60)
    p = 5
    ok = True
    for b in range(1, 6):
        g1 = rt_closed(HeegaardGluing(1, parse_word(1, f"b^{b}")), p)
        g2 = rt_closed(HeegaardGluing(2, parse_word(2, f"c1^{b} * c4*c5*c4")), p)
        ok &= g1 * g1.conjugate() == g2 * g2.conjugate()
    c.finish(ok)
