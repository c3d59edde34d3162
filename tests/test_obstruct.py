import dataclasses
import hashlib
import itertools
import json
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fq_oracles import fq_mat_vec
from oracles import exponent_sums, is_unit
from qtop.cyclotomic import CycElem, ResidueSpec, elem_A, elem_u, eta
from qtop.manifolds import (
    BoundedHeegaard,
    DescError,
    HeegaardGluing,
    LensSurgery,
    MappingTorus,
    S3,
    rt_closed,
    surviving_indices,
)
from qtop.linalg import fq_dtype, fq_mat_mul
from qtop.mcg import empty_word, letter, parse_word, word_in_subgroup
from qtop.obstruct import (
    SEARCH_BATCH,
    TwistSearchResult,
    _genus1_words_upto,
    boundary_vector,
    fkb_ideal_closed,
    fkb_ideal_inner,
    obstruct_embedding,
    rederive_report,
    twist_search,
)
from qtop.rep import letter_matrix, vacuum_vector
from qtop.skein import colors, spectral_color_order, twist

R41 = ResidueSpec.for_primes(5, 41)


# -- very good probes ------------------------------------------------------------


def test_s3_is_very_good():
    assert not rt_closed(S3, 5).is_zero()


def test_lens_spaces_are_very_good():
    # rational homology spheres are very good; all small lens spaces pass
    for n in range(1, 7):
        assert not rt_closed(LensSurgery(n), 5).is_zero()


def test_positive_b1_mapping_torus_is_the_twist_trace():
    # the genus-1 letter a acts diagonally, by the twist eigenvalues, so
    # its mapping torus is their sum over the colors: 1 - zeta^6 at p = 5
    value = rt_closed(MappingTorus(1, letter(1, "a")), 5)
    assert not value.is_zero()
    assert value == sum(twist(5, n) for n in colors(5))
    assert value == CycElem.one(5) - CycElem.root_power(5, 6)


# -- boundary vectors --------------------------------------------------------------


def test_solid_torus_boundary_vector():
    bv = boundary_vector(BoundedHeegaard(2, 1, empty_word(2)), 5)
    lead = bv[spectral_color_order(5).index(0)]
    assert is_unit(lead)
    assert lead == eta(5).inv()
    assert all(x.is_zero() for i, x in enumerate(bv) if spectral_color_order(5)[i] != 0)


def test_capped_vector_is_eta_normalized_closed_invariant():
    bv = boundary_vector(BoundedHeegaard(2, 0, empty_word(2)), 5)
    assert len(bv) == 1
    assert not bv[0].is_zero()
    closed = HeegaardGluing(2, empty_word(2))
    from qtop.manifolds import rt_closed

    assert bv[0] == rt_closed(closed, 5).exact_div(eta(5))


def test_compression_is_twist_invariant():
    # twisting along the compressible curve's meridian side before
    # compressing changes nothing: eigenvalue-1 sectors survive only
    base = boundary_vector(BoundedHeegaard(2, 1, empty_word(2)), 5)
    twisted = boundary_vector(BoundedHeegaard(2, 1, parse_word(2, "s")), 5)
    assert twisted == base
    for w in ("c2", "c4^2"):
        pre = parse_word(2, w)
        a = boundary_vector(BoundedHeegaard(2, 1, pre), 5)
        b = boundary_vector(BoundedHeegaard(2, 1, pre * letter(2, "s")), 5)
        assert a == b


def _vanishes_mod(bv, r):
    return all(r.reduce(x) == 0 for x in bv)


def test_vanishes_mod_basics():
    zero = (CycElem.zero(5), CycElem.zero(5))
    unit = (CycElem.one(5), CycElem.zero(5))
    assert _vanishes_mod(zero, R41)
    assert not _vanishes_mod(unit, R41)


def test_vanishes_mod_unit_insensitive():
    u = elem_u(5)
    bv = boundary_vector(BoundedHeegaard(2, 1, parse_word(2, "c1*c3^-1")), 5)
    for unit in (eta(5), elem_A(5) ** 3, (u - 1)):
        scaled = tuple(unit * x for x in bv)
        assert _vanishes_mod(scaled, R41) == _vanishes_mod(bv, R41)


def test_u_minus_one_scaled_vector_does_not_vanish():
    bv = ((elem_u(5) - 1), CycElem.zero(5))
    assert not _vanishes_mod(bv, R41)


def test_boundary_vector_mod_matches_reduction():
    # the one formula over F_q gives the reduction of its exact coordinates.
    # The delayed reduction first fires after 7 letters at q = 41 and after
    # 6 at q = 61, so one word has 42; 1358187661 is the largest prime
    # = 1 mod 20 with 5 (q - 1)^2 < 2^63, reduced after every letter in
    # int64, and 3000000361 is past it, in Python ints
    long_word = " * ".join(["c1", "c3^-1", "s^2", "c5", "c2^2", "c4^-1", "c3"] * 6)
    assert len(parse_word(2, long_word).letters) >= 40
    specs = [ResidueSpec.for_primes(5, q) for q in (41, 61, 1358187661, 3000000361)]
    assert [fq_dtype(5, r.q) for r in specs[2:]] == [np.int64, object]
    words = ("c1 * c3 * s^2", "c3^-1 * c5 * c2^2 * c3", long_word)
    for word, boundary_genus in itertools.product(words, (0, 1)):
        desc = BoundedHeegaard(2, boundary_genus, parse_word(2, word))
        exact = boundary_vector(desc, 5)
        for r in specs:
            mod = boundary_vector(desc, r)
            assert [x.v for x in mod] == [r.reduce(x) for x in exact]


# -- FKB ideals -----------------------------------------------------------------------


def test_fkb_s3_full():
    assert fkb_ideal_closed(S3, 5).is_full()


def test_fkb_lens_at_level_p():
    ideal = fkb_ideal_closed(LensSurgery(5), 5)
    assert not ideal.is_zero
    # properness is reported by the lattice index
    assert ideal.is_full() or ideal.index() != 1


def test_fkb_inner_solid_torus_full_at_budget_one():
    rep = fkb_ideal_inner(BoundedHeegaard(2, 1, empty_word(2)), 5, 1)
    assert rep.ideal.is_full()


def test_fkb_inner_monotone_in_budget():
    desc = BoundedHeegaard(2, 1, parse_word(2, "c1^2 * c3"))
    r1 = fkb_ideal_inner(desc, 5, 1)
    r2 = fkb_ideal_inner(desc, 5, 2)
    assert r1.ideal.leq(r2.ideal)


def test_genus1_words_are_prefixes():
    # fkb_ideal_inner reads the values up to budget - 1 as a prefix
    for length in range(1, 5):
        short, full = _genus1_words_upto(length - 1), _genus1_words_upto(length)
        assert full[: len(short)] == short and len(full) > len(short)


def test_genus1_words_match_the_free_enumeration():
    # every product of up to `length` letters, deduplicated in order of
    # first appearance (itertools.product order is the breadth-first order)
    letters = [letter(1, c, e) for c, e in (("a", 1), ("a", -1), ("b", 1), ("b", -1))]
    for length in range(7):
        first = {}
        for k in range(length + 1):
            for seq in itertools.product(letters, repeat=k):
                w = reduce(lambda x, y: x * y, seq, empty_word(1))
                first.setdefault(w.letters, w)
        assert _genus1_words_upto(length) == list(first.values())


def test_fkb_inner_usage_errors():
    with pytest.raises(DescError):
        fkb_ideal_inner(BoundedHeegaard(2, 1, empty_word(2)), 5, 0)
    with pytest.raises(DescError):
        fkb_ideal_inner(BoundedHeegaard(2, 0, empty_word(2)), 5, 1)


# -- obstruction reports -----------------------------------------------------------------


def test_solid_torus_never_obstructed_in_s3():
    report = obstruct_embedding(BoundedHeegaard(2, 1, empty_word(2)), S3, 5, [41, 61, 101])
    assert report.verdict == "NO_OBSTRUCTION_FOUND"
    assert rederive_report(report)
    assert all(not e["obstructed"] for e in report.certificate)


@pytest.mark.parametrize("boundary_genus", (0, 1))
def test_certificate_residues_are_python_ints(boundary_genus):
    # F_q vectors are numpy arrays; what a certificate records must be int
    desc = BoundedHeegaard(2, boundary_genus, parse_word(2, "c1*c3"))
    assert all(type(x.v) is int for x in boundary_vector(desc, R41))
    report = obstruct_embedding(desc, S3, 5, [41])
    for entry in report.certificate:
        assert all(type(x) is int for x in (entry["q"], entry["root"], entry["mResidue"]))
        assert all(type(x) is int for x in entry["nVector"])
    json.dumps(report.to_json())
    assert rederive_report(report)


def test_closed_candidate_obstruction_route():
    # a closed candidate's vector is its invariant; S3 against S3 is clean
    report = obstruct_embedding(S3, S3, 5, [41])
    assert report.verdict == "NO_OBSTRUCTION_FOUND"


def test_obstruct_requires_closed_target():
    with pytest.raises(DescError):
        obstruct_embedding(S3, BoundedHeegaard(2, 1, empty_word(2)), 5, [41])


def test_obstruct_empty_q_list():
    with pytest.raises(DescError):
        obstruct_embedding(S3, S3, 5, [])


def test_end_to_end_obstruction_via_search():
    res = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=3000, seed=1)
    assert res.found
    # plain ints, which json.dumps takes: not numpy integers from the batch scan
    assert type(res.samples) is int and type(res.distinct_images) is int
    candidate = BoundedHeegaard(2, 0, res.full_word)
    report = obstruct_embedding(candidate, S3, 5, [41])
    assert report.verdict == "OBSTRUCTED"
    assert report.q_used == 41
    assert rederive_report(report)
    entry = report.certificate[0]
    assert entry["mResidue"] != 0 and all(x == 0 for x in entry["nVector"])


def test_report_verdict_is_function_of_residues():
    # re-derivation re-runs the obstruction on the recorded primes, so any
    # changed field, or an entry after the obstructed one, is rejected
    res = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=3000, seed=2)
    assert res.found
    candidate = BoundedHeegaard(2, 0, res.full_word)
    report = obstruct_embedding(candidate, S3, 5, [41, 61])
    assert report.verdict == "OBSTRUCTED" and len(report.certificate) == 1
    entry = report.certificate[0]
    # another root of order 4p = 20 mod 41: another maximal ideal over 41
    other_root = next(x for x in (2, 5, 8, 20, 21, 33, 36, 39) if x != entry["root"])
    nvec = list(entry["nVector"])
    nvec[0] = 1
    later = obstruct_embedding(candidate, S3, 5, [61]).certificate
    tampered = [
        dataclasses.replace(report, certificate=(dict(entry, mResidue=0),)),
        dataclasses.replace(report, certificate=(dict(entry, root=other_root),)),
        dataclasses.replace(report, certificate=(dict(entry, nVector=nvec),)),
        dataclasses.replace(report, q_used=61),
        dataclasses.replace(report, q_used=None),
        dataclasses.replace(report, verdict="NO_OBSTRUCTION_FOUND"),
        dataclasses.replace(report, certificate=report.certificate + later),
    ]
    assert rederive_report(report)
    for bad in tampered:
        assert not rederive_report(bad)


def test_obstructed_word_is_certified_torelli():
    from qtop.mcg import is_torelli

    res = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=3000, seed=3)
    assert res.found
    assert is_torelli(res.word)
    assert all(v % 3 == 0 for v in exponent_sums(res.word).values())
    assert res.certificate


# -- twist search ----------------------------------------------------------------------


def test_twist_search_deterministic():
    a = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=2000, seed=5)
    b = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=2000, seed=5)
    assert a.found == b.found and a.word == b.word and a.samples == b.samples


def _python_rho_mod(word, r):
    """rho(word) mod J by pure-Python products of the cached F_q letters."""
    letters = [letter_matrix(2, r, c, e) for c, e in word.letters]
    return reduce(lambda A, B: fq_mat_mul(A, B, r.q), letters)


def _python_apply(word, r, vec):
    """rho(word) vec mod J by pure-Python matrix-vector products of the
    cached F_q letters."""
    for c, e in reversed(word.letters):
        vec = fq_mat_vec(letter_matrix(2, r, c, e), vec, r.q)
    return vec


def _twist_search_one_sample_at_a_time(desc, p, r, budget, seed, walk_length=48):
    """The search before batching, kept as the oracle: each sample draws its
    picks, carries e_vac through pure-Python matrix-vector products, and
    a hit builds f by successive word products."""
    rng = random.Random(seed)
    base = desc.word
    keep = surviving_indices(p, desc.boundary_genus)

    def vanishes(vec):
        return all(vec[i] == 0 for i in keep)

    gens, certs = [], []
    for j in range(6):
        cw = word_in_subgroup(3, 1, seed * 1009 + j + 1)
        gens.append(cw.word)
        certs.append(cw.certificate)
    gen_mats = [_python_rho_mod(g, r) for g in gens]
    gen_mats += [_python_rho_mod(g.inverse(), r) for g in gens]
    gen_index = list(range(len(gen_mats)))
    e_vac = vacuum_vector(2, r)
    if vanishes(_python_apply(base, r, e_vac)):
        return TwistSearchResult(True, empty_word(2), base, "1", 0, 1)
    images = set()
    for sample in range(1, budget + 1):
        picks = [rng.choice(gen_index) for _ in range(walk_length)]
        vec = e_vac
        for i in reversed(picks):
            vec = fq_mat_vec(gen_mats[i], vec, r.q)
        vec = _python_apply(base, r, vec)
        images.add(vec)
        if vanishes(vec):
            f = empty_word(2)
            for i in picks:
                f = f * (gens[i] if i < len(gens) else gens[i - len(gens)].inverse())
            certificate = " . ".join(
                certs[i] if i < len(gens) else f"({certs[i - len(gens)]})^-1" for i in picks
            )
            return TwistSearchResult(True, f, base * f, certificate, sample, len(images))
    return TwistSearchResult(False, None, None, None, budget, len(images))


# budgets around the first three multiples of the batch, and a spread below
BATCH_BUDGETS = st.one_of(
    st.sampled_from([m * SEARCH_BATCH + d for m in (1, 2, 3) for d in (-1, 0, 1)]),
    st.integers(0, 3 * SEARCH_BATCH + 2),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1 << 20),
    budget=BATCH_BUDGETS,
    boundary_genus=st.sampled_from((0, 1)),
    word=st.sampled_from(("1", "c1*c3", "c3^-1*c2")),
)
def test_batched_search_equals_one_sample_at_a_time(seed, budget, boundary_genus, word):
    desc = BoundedHeegaard(2, boundary_genus, parse_word(2, word))
    assert twist_search(desc, 5, R41, budget=budget, seed=seed) == (
        _twist_search_one_sample_at_a_time(desc, 5, R41, budget, seed)
    )


def test_batched_search_equals_one_sample_at_a_time_above_int64_range():
    # 5 (q - 1)^2 >= 2^63: the walk runs on Python ints (object dtype)
    r = ResidueSpec(5, 3000000361, 2562159243)
    assert fq_dtype(5, r.q) is object
    for desc in (BoundedHeegaard(2, 0, parse_word(2, "c1*c3^-1")), BoundedHeegaard(2, 1, empty_word(2))):
        budget = SEARCH_BATCH + 3
        res = twist_search(desc, 5, r, budget=budget, seed=3)
        assert res == _twist_search_one_sample_at_a_time(desc, 5, r, budget, 3)
        assert res.samples == budget


def test_twist_search_budget_exhaustion_is_not_found():
    desc = BoundedHeegaard(2, 0, empty_word(2))
    res = twist_search(desc, 5, R41, budget=2, seed=12)
    assert not res.found and res.word is None
    assert res.samples == 2
    assert type(res.samples) is int and type(res.distinct_images) is int
    assert res.distinct_images == _twist_search_one_sample_at_a_time(desc, 5, R41, 2, 12).distinct_images


def test_twist_search_refuses_a_negative_budget():
    desc = BoundedHeegaard(2, 0, empty_word(2))
    with pytest.raises(DescError, match="budget must be >= 0"):
        twist_search(desc, 5, R41, budget=-5, seed=1)
    # a budget of 0 draws nothing and finds nothing here
    assert twist_search(desc, 5, R41, budget=0, seed=1) == TwistSearchResult(
        False, None, None, None, 0, 0
    )


def test_twist_search_degenerate_immediate():
    # a gluing whose vector already vanishes is found with the empty word
    probe = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, budget=2000, seed=1)
    desc = BoundedHeegaard(2, 0, probe.full_word)
    res = twist_search(desc, 5, R41, budget=10, seed=0)
    assert res.found and res.samples == 0 and res.word == empty_word(2)


# seed -> (samples, digest of word and certificate), taken from the search
# that multiplied whole generator matrices: carrying only the vacuum
# vector must draw the same picks and stop at the same sample
SEARCH_PINS = {
    0: (5, "d83ce017caccd846"),
    1: (37, "cf610f89d28880d5"),
    2: (173, "5d70867519b40863"),
    3: (63, "3ed672af64352923"),
    4: (10, "b4ea024062ab0ccb"),
    5: (54, "c652c995f2e7b91f"),
    6: (48, "a7720cc1b1c43566"),
    7: (162, "4fe834d0c6755a86"),
    8: (22, "74e9a8887bfb06ba"),
    9: (59, "612b0c241907b39f"),
}


def test_twist_search_results_pinned():
    for seed, (samples, digest) in SEARCH_PINS.items():
        res = twist_search(BoundedHeegaard(2, 0, empty_word(2)), 5, R41, seed=seed)
        assert res.found and res.samples == samples, seed
        assert res.full_word == res.word
        assert hashlib.sha256(f"{res.word}|{res.certificate}".encode()).hexdigest()[:16] == digest


def test_genus1_boundary_search():
    res = twist_search(BoundedHeegaard(2, 1, empty_word(2)), 5, R41, budget=4000, seed=4)
    # success probability ~ (41^3-1)/(41^5-1) ~ 6e-4 per sample; the
    # matrix-product search found nothing at this seed and budget
    assert (res.found, res.word, res.full_word, res.certificate) == (False, None, None, None)
    assert res.samples == 4000
