from fractions import Fraction

import pytest

import numpy as np

from qtop.cyclotomic import ResidueSpec
from qtop.manifolds import BoundedHeegaard
from qtop.mcg import empty_word, parse_word
from qtop.obstruct import surviving_indices
from qtop.linalg import fq_walk
from qtop.rep import fq_mat_mul, rho_array, rho_mod, vacuum_index, vacuum_vector
from qtop.walks import (
    WalkSpec,
    WalkUsageError,
    default_subgroup_walk,
    enumerate_group,
    hyperplane_prob,
    montecarlo_vanishing,
    psl_order,
    tv_to_uniform,
)

R41 = ResidueSpec.for_primes(5, 41)
PSL2_GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 4), (0, 1)), ((1, 0), (4, 1)))


# -- enumeration -------------------------------------------------------------------


def test_identity_closure():
    assert enumerate_group([((1, 0), (0, 1))], 5).count == 1


def test_psl2_f5_order():
    closure = enumerate_group(PSL2_GENS[:2], 5)
    assert closure.complete and closure.count == 60 == psl_order(2, 5)


def test_psl2_f11_order():
    closure = enumerate_group(PSL2_GENS[:2], 11)
    assert closure.complete and closure.count == 660 == psl_order(2, 11)


def test_cap_exceeded_is_typed_outcome():
    out = enumerate_group(PSL2_GENS[:2], 11, cap=10)
    assert out.cap_exceeded and not out.complete
    assert out.count == 11


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


def test_walkspec_validation():
    with pytest.raises(WalkUsageError):
        WalkSpec((), (), 5, 0)
    with pytest.raises(WalkUsageError):
        WalkSpec(PSL2_GENS[:2], (Fraction(1, 2), Fraction(1, 3)), 5, 0)


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
    gen_mats = np.array([rho_array(w, r) for w in spec.generators])
    weights = [float(w) for w in spec.weights]
    picks = np.random.default_rng(spec.seed).choice(len(gen_mats), size=(trials, spec.length), p=weights)
    e_vac = vacuum_vector(2, r)
    rows = _gather_einsum_walk(gen_mats, picks, e_vac, r.q)
    assert np.array_equal(fq_walk(gen_mats, picks, e_vac, r.q), rows)
    columns = rows @ rho_array(desc.word, r).T % r.q
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
