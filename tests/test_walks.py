from fractions import Fraction

import pytest

import numpy as np

from fq_oracles import enumerate_group as tuple_closure, tv_curve
from qtop.cyclotomic import ResidueSpec, RingUsageError
from qtop.manifolds import BoundedHeegaard, surviving_indices
from qtop.mcg import empty_word, parse_word
from qtop.linalg import fq_walk
from qtop.rep import fq_mat_mul, rho, rho_mod, vacuum_index, vacuum_vector
from qtop.walks import (
    WalkSpec,
    WalkUsageError,
    default_subgroup_walk,
    enumerate_group,
    hyperplane_prob,
    montecarlo_vanishing,
    psl_order,
    sl_transvection_generators,
    tv_to_uniform,
    _unique_rows,
)

R41 = ResidueSpec.for_primes(5, 41)
PSL2_GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 4), (0, 1)), ((1, 0), (4, 1)))


# -- enumeration -------------------------------------------------------------------


def test_unique_rows_matches_numpy_unique():
    """Same sorted matrices, first indices and inverse as np.unique(axis=0),
    on stacks with repeats, ties in leading entries and a single matrix."""
    rng = np.random.default_rng(7)
    for k, n, q in ((1, 2, 5), (50, 2, 3), (400, 2, 41), (300, 3, 2)):
        mats = rng.integers(0, q, size=(k, n, n), dtype=np.int64)
        mats = np.concatenate([mats, mats[rng.integers(0, k, size=k // 2)]])
        want, first, inverse = np.unique(mats, axis=0, return_index=True, return_inverse=True)
        got = _unique_rows(mats)
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[1], first)
        assert np.array_equal(got[2], inverse.ravel())


def test_identity_closure():
    assert enumerate_group([((1, 0), (0, 1))], 5).count == 1


def test_psl2_f5_order():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    assert closure.complete and closure.count == 60 == psl_order(2, 5)


def test_psl2_f11_order():
    closure = enumerate_group(PSL2_GENS[:2], 11)
    assert closure.complete and closure.count == 660 == psl_order(2, 11)


def test_non_prime_q_is_refused():
    # projective_canon inverts by a Fermat power, which is an inverse only mod a prime
    for q in (6, 4, -5):
        with pytest.raises(WalkUsageError, match="q must be prime"):
            enumerate_group(PSL2_GENS[:2], q)
    spec = WalkSpec.uniform(PSL2_GENS[:2], 3, 0)
    with pytest.raises(WalkUsageError, match="q must be prime"):
        tv_to_uniform(spec, enumerate_group(PSL2_GENS[:2], 5), 6, 3)


def test_cap_exceeded_is_typed_outcome():
    out = enumerate_group(PSL2_GENS[:2], 11, cap=10)
    assert not out.complete
    assert out.count == 11
    # the first round already brings five elements; the count is still cap + 1
    out = enumerate_group(PSL2_GENS, 5, cap=2)
    assert not out.complete and out.count == 3 and len(out.elements) == 0


def _psl2_generators(q):
    return (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, q - 1), (0, 1)), ((1, 0), (q - 1, 1)))


@pytest.mark.parametrize("q", [5, 7, 13])
def test_closure_matches_the_tuple_oracle(q):
    closure = enumerate_group(_psl2_generators(q)[:2], q)
    assert closure.elements.dtype == np.int64
    assert [tuple(map(tuple, M)) for M in closure.elements.tolist()] == tuple_closure(
        _psl2_generators(q)[:2], q
    )


def test_closure_of_psl3_f3():
    closure = enumerate_group(sl_transvection_generators(3, 3), 3)
    assert closure.complete and closure.count == 5616 == psl_order(3, 3)


def test_canonical_form_is_exact_near_the_int64_limit():
    # (q - 1)^2 > 2^63: the scaling runs on Python ints, and -I is the identity
    q = 4294967311
    closure = enumerate_group([((0, q - 1), (1, 0))], q, cap=10)
    assert closure.complete and closure.count == 2
    assert closure.elements.tolist() == [[[0, 1], [q - 1, 0]], [[1, 0], [0, 1]]]


@pytest.mark.parametrize(
    "q, steps, lazy, weights",
    [
        (5, 40, True, None),
        (5, 40, False, None),
        (7, 30, True, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))),
        (7, 30, False, None),
        (13, 12, True, None),
        (13, 12, False, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))),
    ],
)
def test_tv_curve_matches_the_fraction_oracle(q, steps, lazy, weights):
    gens = _psl2_generators(q)
    spec = WalkSpec.uniform(gens, steps, 0) if weights is None else WalkSpec(gens, weights, steps, 0)
    closure = enumerate_group(gens[:2], q)
    report = tv_to_uniform(spec, closure, q, steps, lazy=lazy)
    expect = tv_curve(tuple_closure(gens[:2], q), gens, spec.weights, q, steps, lazy)
    assert list(report.tv) == expect and all(isinstance(t, Fraction) for t in report.tv)


# -- exact mixing --------------------------------------------------------------------


def test_identity_generator_chain_is_stuck():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    spec = WalkSpec.uniform((((1, 0), (0, 1)),), 10, 0)
    report = tv_to_uniform(spec, closure, 5, 10)
    assert report.tv[0] == report.tv[-1] == Fraction(59, 60)


def test_lazy_symmetric_mixing_psl2_f5():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    spec = WalkSpec.uniform(PSL2_GENS, 200, 0)
    report = tv_to_uniform(spec, closure, 5, 200, lazy=True)
    assert report.group_order == 60
    assert report.nonincreasing()
    assert any(t < Fraction(1, 100) for t in report.tv[: 200 + 1])
    assert report.final_tv() < Fraction(1, 10 ** 6)
    assert all(0 <= t <= 1 for t in report.tv)


def test_mixing_requires_generators_in_group():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    bad = (((2, 0), (0, 1)),)  # determinant 2: not in PSL_2(F_5) as canonicalized... still may land outside
    with pytest.raises(WalkUsageError):
        tv_to_uniform(WalkSpec.uniform(bad, 5, 0), closure, 5, 5)
    # a generator of the whole group is outside the closure of a subgroup
    upper = enumerate_group(PSL2_GENS[:1], 5)
    assert upper.count == 5
    with pytest.raises(WalkUsageError, match="outside the enumerated group"):
        tv_to_uniform(WalkSpec.uniform(PSL2_GENS[:2], 5, 0), upper, 5, 5)


def test_walkspec_validation():
    with pytest.raises(WalkUsageError):
        WalkSpec((), (), 5, 0)
    with pytest.raises(WalkUsageError):
        WalkSpec(PSL2_GENS[:2], (Fraction(1, 2), Fraction(1, 3)), 5, 0)
    with pytest.raises(WalkUsageError, match="walk length must be >= 0"):
        WalkSpec.uniform(PSL2_GENS, -1, 0)


def test_negative_walk_sizes_are_refused():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    with pytest.raises(WalkUsageError, match="steps must be >= 0"):
        tv_to_uniform(WalkSpec.uniform(PSL2_GENS, 3, 0), closure, 5, -3)
    with pytest.raises(WalkUsageError, match="walk length must be >= 0"):
        default_subgroup_walk(5, -4, 1)
    desc = BoundedHeegaard(2, 0, empty_word(2))
    with pytest.raises(WalkUsageError, match="trials must be >= 0"):
        montecarlo_vanishing(desc, 5, R41, default_subgroup_walk(5, 10, 1), -3)
    # length 0 and zero trials stay valid
    assert tv_to_uniform(WalkSpec.uniform(PSL2_GENS, 0, 0), closure, 5, 0).tv == (Fraction(59, 60),)
    assert montecarlo_vanishing(desc, 5, R41, default_subgroup_walk(5, 0, 1), 0).trials == 0


def test_mixing_csv_export():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    report = tv_to_uniform(WalkSpec.uniform(PSL2_GENS, 5, 0), closure, 5, 5)
    lines = report.to_csv().splitlines()
    assert lines[0] == "step,tv"
    assert len(lines) == 7


# -- hyperplane probabilities -----------------------------------------------------------


def test_formula_values():
    assert hyperplane_prob(2, 2, 1) == Fraction(1, 3)
    assert hyperplane_prob(3, 2, 1) == Fraction(1, 4)


def test_enumerate_matches_formula():
    for q, n, m in ((2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 3, 2)):
        assert hyperplane_prob(q, n, m, "enumerate") == hyperplane_prob(q, n, m, "formula")


def test_theorem_bound_shape():
    # with n = d_p(F) and m = d - d', the formula is the theorem's bound
    q, d, dprime = 41, 5, 1
    assert hyperplane_prob(q, d, d - dprime) == Fraction(q ** 4 - 1, q ** 5 - 1)


def test_bound_approaches_one_over_q_squared():
    # growing-genus reproduction of the remark: (q^{d-2}-1)/(q^d-1) -> 1/q^2
    q = 41
    for d in (10, 20, 40):
        gap = abs(hyperplane_prob(q, d, d - 2) - Fraction(1, q * q))
        assert gap < Fraction(1, q ** (d - 3))


def test_sample_mode():
    out = hyperplane_prob(3, 2, 1, "sample", trials=400, seed=0)
    assert abs(float(out["frequency"]) - 0.25) <= out["radius3sigma"]


# hyperplane_prob(q, n, m, "sample", trials=300, seed=s) for s = 0..3, taken
# from the one-trial-at-a-time pure-Python sampler: the batched walk draws
# the same picks from the same random.Random stream, in the same order
SAMPLE_FREQUENCIES = {
    (3, 2, 1): ("13/50", "61/300", "11/50", "79/300"),
    (5, 2, 1): ("23/150", "49/300", "19/150", "47/300"),
    (3, 3, 1): ("8/75", "3/50", "3/50", "23/300"),
    (3, 3, 2): ("37/100", "19/60", "19/60", "8/25"),
    (7, 3, 1): ("1/50", "7/300", "1/100", "1/60"),
    (5, 4, 2): ("1/30", "7/300", "2/75", "7/300"),
}


@pytest.mark.parametrize("q, n, m", SAMPLE_FREQUENCIES)
def test_sample_mode_frequencies_pinned(q, n, m):
    got = tuple(
        str(hyperplane_prob(q, n, m, "sample", trials=300, seed=s)["frequency"]) for s in range(4)
    )
    assert got == SAMPLE_FREQUENCIES[q, n, m]


def test_sample_mode_pinned_across_batches():
    # 4101 trials span more than one batch of SAMPLE_BATCH = 4096 walks;
    # frequencies from the same pure-Python sampler
    assert hyperplane_prob(3, 2, 1, "sample", trials=4101, seed=0)["frequency"] == Fraction(1028, 4101)
    assert hyperplane_prob(5, 3, 1, "sample", trials=4101, seed=9)["frequency"] == Fraction(142, 4101)


def test_mode_errors():
    with pytest.raises(WalkUsageError):
        hyperplane_prob(3, 2, 2)
    with pytest.raises(WalkUsageError):
        hyperplane_prob(4, 2, 1)
    with pytest.raises(WalkUsageError):
        hyperplane_prob(3, 3, 1, "enumerate", cap=10)


# -- Monte Carlo -----------------------------------------------------------------------


def test_montecarlo_within_three_sigma():
    desc = BoundedHeegaard(2, 0, empty_word(2))
    spec = default_subgroup_walk(5, 80, 17)
    report = montecarlo_vanishing(desc, 5, R41, spec, 400)
    assert report.kernel_dim == 4 and report.space_dim == 5
    assert report.exact_probability == Fraction(41 ** 4 - 1, 41 ** 5 - 1)
    assert abs(float(report.frequency) - float(report.exact_probability)) <= report.radius3sigma


def test_montecarlo_zero_trials():
    desc = BoundedHeegaard(2, 0, empty_word(2))
    spec = default_subgroup_walk(5, 10, 0)
    report = montecarlo_vanishing(desc, 5, R41, spec, 0)
    assert report.frequency is None and report.trials == 0
    assert report.exact_probability > 0
    doc = report.to_json()
    assert doc["boundShape"] == doc["exactProbability"] == str(Fraction(41 ** 4 - 1, 41 ** 5 - 1))


def test_montecarlo_deterministic():
    desc = BoundedHeegaard(2, 0, empty_word(2))
    spec = default_subgroup_walk(5, 40, 3)
    a = montecarlo_vanishing(desc, 5, R41, spec, 200)
    b = montecarlo_vanishing(desc, 5, R41, spec, 200)
    assert a.hits == b.hits
    assert a.to_json() == b.to_json()


def test_montecarlo_converges_in_walk_length():
    # the vanishing frequency drifts toward the exact hyperplane
    # probability as the walk mixes (deterministic for the fixed seed)
    desc = BoundedHeegaard(2, 0, empty_word(2))
    gaps = []
    for d in (4, 40, 120):
        spec = default_subgroup_walk(5, d, 7)
        rep = montecarlo_vanishing(desc, 5, R41, spec, 800)
        gaps.append(abs(float(rep.frequency) - float(rep.exact_probability)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_montecarlo_refuses_a_residue_spec_of_another_p():
    # a p = 5 word against a p = 7 spec, and a p = 7 word against a p = 5 spec
    desc = BoundedHeegaard(2, 0, empty_word(2))
    spec = default_subgroup_walk(5, 10, 0)
    for p, r in ((5, ResidueSpec.for_primes(7, 29)), (7, R41)):
        with pytest.raises(RingUsageError, match="different p"):
            montecarlo_vanishing(desc, p, r, spec, 10)


def test_montecarlo_genus1_boundary_kernel_dim():
    desc = BoundedHeegaard(2, 1, empty_word(2))
    spec = default_subgroup_walk(5, 10, 0)
    report = montecarlo_vanishing(desc, 5, R41, spec, 10)
    assert report.kernel_dim == 3
    assert report.exact_probability == Fraction(41 ** 3 - 1, 41 ** 5 - 1)


def test_montecarlo_hits_pinned():
    # hits of the walks that multiplied whole matrices; carrying a batch of
    # vacuum vectors must give the same count
    R29 = ResidueSpec.for_primes(7, 29)
    for p, r, word, length, seed, trials, hits in (
        (5, R41, "c1*c3", 30, 7, 400, 13),
        (7, R29, "c3^-1*c2", 20, 5, 300, 12),
    ):
        desc = BoundedHeegaard(2, 0, parse_word(2, word))
        spec = default_subgroup_walk(p, length, seed)
        assert montecarlo_vanishing(desc, p, r, spec, trials).hits == hits, p


def test_montecarlo_hits_pinned_p11():
    # walk montecarlo --desc bounded:2:0:1 --p 11 --q 89 --d 200 --trials 2000
    # --seed 42: n = 55, on the float32 tier (55 * 88^2 < 2^24); 13 hits
    # was counted by the float64-BLAS walk
    r = ResidueSpec.for_primes(11, 89)
    spec = default_subgroup_walk(11, 200, 42)
    assert montecarlo_vanishing(BoundedHeegaard(2, 0, empty_word(2)), 11, r, spec, 2000).hits == 13


def _gather_einsum_walk(mats, picks, vec, q):
    """The walk kernel before the stacked product, kept as the oracle: each
    step gathers every trial's picked matrix and multiplies by an int64
    einsum."""
    vectors = np.tile(np.asarray(vec, dtype=np.int64), (len(picks), 1))
    for step in reversed(range(picks.shape[1])):
        vectors = np.einsum("tij,tj->ti", mats[picks[:, step]], vectors) % q
    return vectors


def test_montecarlo_p11_matches_the_gather_einsum_walk():
    p, r, trials = 11, ResidueSpec.for_primes(11, 89), 64
    desc = BoundedHeegaard(2, 0, parse_word(2, "c1*c3"))
    spec = default_subgroup_walk(p, 100, 1)
    gen_mats = np.array([rho(w, r) for w in spec.generators])
    weights = [float(w) for w in spec.weights]
    picks = np.random.default_rng(spec.seed).choice(len(gen_mats), size=(trials, spec.length), p=weights)
    e_vac = vacuum_vector(2, r)
    rows = _gather_einsum_walk(gen_mats, picks, e_vac, r.q)
    assert np.array_equal(fq_walk(gen_mats, picks, e_vac, r.q), rows)
    columns = rows @ rho(desc.word, r).T % r.q
    hits = int(np.all(columns[:, list(surviving_indices(p, 0))] == 0, axis=1).sum())
    assert montecarlo_vanishing(desc, p, r, spec, trials).hits == hits == 3


def test_montecarlo_exact_above_int64_range():
    # dim * (q - 1)^2 >= 2^63, so an int64 product would overflow; the
    # vacuum entry of (c1*c3^-1)*g is 0 for g = c3^2*c5^2, so walks whose
    # steps multiply to g hit
    p, r = 5, ResidueSpec(5, 3000000361, 2562159243)
    assert 5 * (r.q - 1) ** 2 >= 2 ** 63
    desc = BoundedHeegaard(2, 0, parse_word(2, "c1*c3^-1"))
    g = parse_word(2, "c3^2*c5^2")
    spec = WalkSpec.uniform((g, g.inverse()), 3, 11)
    trials = 40
    report = montecarlo_vanishing(desc, p, r, spec, trials)
    # replay the walk's picks with Python-int products
    picks = np.random.default_rng(spec.seed).choice(2, size=(trials, spec.length), p=[0.5, 0.5])
    gens = [rho_mod(w, p, r) for w in spec.generators]
    vac, keep = vacuum_index(2, p), surviving_indices(p, 0)
    hits = 0
    for row in picks:
        acc = rho_mod(desc.word, p, r)
        for i in row:
            acc = fq_mat_mul(acc, gens[i], r.q)
        hits += all(acc[k][vac] == 0 for k in keep)
    assert 0 < hits < trials
    assert report.hits == hits
