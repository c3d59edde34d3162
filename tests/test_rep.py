import itertools
import random
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtop.cyclotomic import CycElem, ResidueSpec, elem_A
from qtop.linalg import fq_dtype, fq_rref, ring_inverse
from qtop.mcg import GENUS_CURVES, empty_word, letter, parse_word, random_word
from qtop.pmatrix import PMatrix, scalar_ring
from qtop.rep import (
    _bridge_f_block,
    _letter_matrix,
    _bridge_f_matrix,
    _left_s_operator,
    _letter_matrix_mod,
    _right_s_operator,
    _twist_conjugators,
    algebra_span_dim,
    fq_is_scalar,
    fq_mat_mul,
    fq_projective_order,
    genus2_basis,
    hermitian_check,
    hermitian_gram,
    rep_dim,
    rho,
    rho_apply,
    rho_mod,
    twist_power_matrix,
    vacuum_index,
    vacuum_vector,
)
from qtop.skein import _holed_torus_s, admissible, colors, s_matrix, sixj, twist
from qtop.walks import default_subgroup_walk, enumerate_group

R41 = ResidueSpec.for_primes(5, 41)

GENUS2_CURVES = ("c1", "c2", "c3", "c4", "c5", "s")


def test_rep_dimensions():
    assert rep_dim(1, 5) == 2
    assert rep_dim(1, 7) == 3
    assert rep_dim(2, 5) == 5
    # brute-force dumbbell enumeration oracle
    for p in (5, 7):
        count = 0
        for a, c, b in itertools.product(colors(p), repeat=3):
            if admissible(p, a, a, c) and admissible(p, b, b, c):
                count += 1
        assert rep_dim(2, p) == count


def test_rep_dimension_transfer_matrix_oracle():
    # paths 0 -> 0 of length 6 in the fusion graph of color 2 count the
    # genus-2 dimension (six-point-sphere model of the hyperelliptic cover)
    for p in (5, 7):
        cols = colors(p)
        def step(state):
            return [e for e in cols if admissible(p, state, 2, e)]
        counts = {0: 1}
        for _ in range(6):
            nxt = {}
            for s, c in counts.items():
                for e in step(s):
                    nxt[e] = nxt.get(e, 0) + c
            counts = nxt
        assert counts.get(0, 0) == rep_dim(2, p)


def test_empty_word_is_identity():
    for genus, p in ((1, 5), (2, 5)):
        assert rho(empty_word(genus), p).equal_exact(PMatrix.identity(p, rep_dim(genus, p)))


def test_twist_order_p_exact_identity():
    for p in (5, 7):
        for c in GENUS2_CURVES:
            M = twist_power_matrix(2, p, c, p)
            assert M.equal_exact(PMatrix.identity(p, rep_dim(2, p)))
    assert twist_power_matrix(1, 5, "a", 5).equal_exact(PMatrix.identity(5, 2))
    assert twist_power_matrix(1, 5, "b", 5).equal_exact(PMatrix.identity(5, 2))


def test_genus2_braid_and_commutation_relations():
    for p in (5, 7):
        M = {c: twist_power_matrix(2, p, c, 1) for c in GENUS2_CURVES}
        for x, y in (("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")):
            assert (M[x] * M[y] * M[x]).proj_equal(M[y] * M[x] * M[y]), (p, x, y)
        disjoint = [
            ("c1", "c3"), ("c1", "c4"), ("c1", "c5"), ("c2", "c4"),
            ("c2", "c5"), ("c3", "c5"), ("c1", "s"), ("c2", "s"),
            ("c4", "s"), ("c5", "s"),
        ]
        for x, y in disjoint:
            assert (M[x] * M[y]).proj_equal(M[y] * M[x]), (p, x, y)


def test_genus1_braid_relation():
    for p in (5, 7):
        assert rho(parse_word(1, "a*b*a"), p).proj_equal(rho(parse_word(1, "b*a*b"), p))


def test_genus2_chain_relation():
    # (t1 t2 t3 t4 t5)^6 = 1 holds in the mapping class group but not in
    # the braid group, so it validates the construction beyond the braid
    # and commutation relations
    for p in (5, 7):
        w = parse_word(2, "(c1*c2*c3*c4*c5)^6")
        M = rho(w, p)
        assert M.proj_equal(PMatrix.identity(p, M.n))


def test_genus2_hyperelliptic_involution():
    from qtop.mcg import h1_action, letter

    iota = parse_word(2, "c1*c2*c3*c4*c5*c5*c4*c3*c2*c1")
    assert h1_action(iota) == tuple(
        tuple(-1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    for p in (5, 7):
        Mi = rho(iota, p)
        assert (Mi * Mi).proj_equal(PMatrix.identity(p, Mi.n))
        for c in ("c1", "c2", "c3", "c4", "c5", "s"):
            Mc = rho(letter(2, c), p)
            assert (Mi * Mc).proj_equal(Mc * Mi)


def test_separating_twist_is_diagonal_with_bridge_eigenvalues():
    p = 5
    M = twist_power_matrix(2, p, "s", 1)
    basis = genus2_basis(p)
    for i, (a, c, b) in enumerate(basis):
        assert M.entries[i][i] == twist(p, c)
        for j in range(len(basis)):
            if i != j:
                assert M.entries[i][j].is_zero()
    assert not M.proj_equal(PMatrix.identity(p, M.n))


def test_projective_functoriality():
    p = 5
    for seed in range(5):
        w1, w2 = random_word(2, 5, seed), random_word(2, 5, 100 + seed)
        assert rho(w1 * w2, p).equal_exact(rho(w1, p) * rho(w2, p))


def test_rho_mod_functoriality_and_inverses():
    p = 5
    for seed in range(10):
        w1, w2 = random_word(2, 5, seed), random_word(2, 5, 200 + seed)
        lhs = rho_mod(w1 * w2, p, R41)
        rhs = fq_mat_mul(rho_mod(w1, p, R41), rho_mod(w2, p, R41), 41)
        assert lhs == rhs
    for seed in range(10):
        w = random_word(2, 6, 300 + seed)
        prod = fq_mat_mul(rho_mod(w, p, R41), rho_mod(w.inverse(), p, R41), 41)
        assert fq_is_scalar(prod, 41)


def test_reduction_compatibility():
    # letters are built in F_q; they must equal the reduced exact letters,
    # also at the inverse of the smallest root (another maximal ideal)
    curves = {1: ("a", "b"), 2: GENUS2_CURVES}
    for p, qs in ((5, (41, 61, 101)), (7, (29, 113, 197))):
        specs = [ResidueSpec.for_primes(p, q) for q in qs]
        specs.append(ResidueSpec(p, qs[0], pow(specs[0].root, -1, qs[0])))
        for r in specs:
            for genus, names in curves.items():
                for c in names:
                    for k in (1, -1, 2, -3):
                        exact = twist_power_matrix(genus, p, c, k).reduce(r)
                        assert np.array_equal(_letter_matrix_mod(genus, c, k, r), exact), (p, r, c, k)
            for seed in range(3):
                w = random_word(2, 6, seed)
                assert rho(w, p).reduce(r) == rho_mod(w, p, r)
            w1 = random_word(1, 8, 5)
            assert rho(w1, p).reduce(r) == rho_mod(w1, p, r)


def _block_mul(A, B, zero):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), zero) for col in zip(*B)) for row in A)


def _scalar_block(n, d, zero):
    return tuple(tuple(d if i == j else zero for j in range(n)) for i in range(n))


# exact at p = 5 and 7; in F_q at p = 11 and 13, and at the inverse of the
# smallest root mod 29 (the conjugate prime)
IDENTITY_SPECS = (
    5,
    7,
    ResidueSpec.for_primes(11, 89),
    ResidueSpec.for_primes(13, 53),
    ResidueSpec(7, 29, pow(ResidueSpec.for_primes(7, 29).root, -1, 29)),
)


@pytest.mark.parametrize("R", IDENTITY_SPECS, ids=str)
def test_conjugator_blocks_are_inverted_by_their_identities(R):
    S = scalar_ring(R)
    p, zero, one = S.p, S.zero, S.one
    exact = not isinstance(R, ResidueSpec)
    basis = genus2_basis(p)

    equal = (lambda X, Y: X == Y) if exact else np.array_equal

    def same(A, B):  # entrywise equality over R, for PMatrices or residue arrays
        return equal(S.matrix(A), S.matrix(B))

    def eye(n):
        return _scalar_block(n, one, zero)

    for c in sorted({c for _a, c, _b in basis}):
        block, inv = _holed_torus_s(R, c)
        n = len(block)
        square = _block_mul(block, block, zero)
        # the S-move squares to a scalar: a root of unity, 1 on the closed torus
        lam = square[0][0]
        assert same(square, _scalar_block(n, lam, zero))
        assert same([[lam ** (4 * p)]], [[one]]) and (c or same([[lam]], [[one]]))
        assert same(_block_mul(block, inv, zero), eye(n))
        if exact:
            assert same(inv, ring_inverse(block, S))
    for a, b in sorted({(a, b) for a, _c, b in basis}):
        block, inv = _bridge_f_block(R, a, b)
        n = len(block)
        assert same(_block_mul(block, inv, zero), eye(n))
        assert same(_block_mul(inv, block, zero), eye(n))
        cs = [c for x, c, y in basis if (x, y) == (a, b)]
        fs = [f for f in colors(p) if admissible(p, a, b, f)]
        assert same(block, [[sixj(R, a, a, c, b, b, f) for c in cs] for f in fs])
        assert same(inv, [[sixj(R, a, b, f, b, a, c) for f in fs] for c in cs])
        if exact:
            assert same(inv, ring_inverse(block, S))
    Smat = s_matrix(R)
    assert equal(S.product([Smat, Smat]), S.matrix(eye(len(colors(p)))))
    if p <= 7:
        for curve in ("c1", "c3", "c5"):
            Q, Qinv, _d = _twist_conjugators(2, R, curve)
            assert equal(S.product([Q, Qinv]), S.matrix(eye(len(basis))))
            assert equal(S.product([Qinv, Q]), S.matrix(eye(len(basis))))


# smallest-root specs, and one at the inverse of the smallest root
APPLY_SPECS = {
    p: [ResidueSpec.for_primes(p, q) for q in qs]
    + [ResidueSpec(p, qs[0], pow(ResidueSpec.for_primes(p, qs[0]).root, -1, qs[0]))]
    for p, qs in ((5, (41, 61)), (7, (29, 113)))
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((5, 7)), st.sampled_from((1, 2)), st.data())
def test_rho_apply_is_a_column_of_rho(p, genus, data):
    exps = st.sampled_from((-2, -1, 1, 2))
    letters = data.draw(st.lists(st.tuples(st.sampled_from(GENUS_CURVES[genus]), exps), max_size=6))
    w = empty_word(genus)
    for c, e in letters:
        w = w * letter(genus, c, e)
    n = rep_dim(genus, p)
    j = data.draw(st.integers(0, n - 1))
    M = rho(w, p)
    e_j = scalar_ring(p).vector([CycElem.one(p) if i == j else CycElem.zero(p) for i in range(n)])
    assert rho_apply(w, p, e_j).entries == tuple((M.entries[i][j],) for i in range(n))
    for r in APPLY_SPECS[p]:
        Mq = rho_mod(w, p, r)
        e_j = tuple(int(i == j) for i in range(n))
        assert np.array_equal(rho_apply(w, r, e_j), [Mq[i][j] for i in range(n)])
        vac = vacuum_index(genus, p)
        assert np.array_equal(rho_apply(w, r, vacuum_vector(genus, r)), [Mq[i][vac] for i in range(n)])


@pytest.mark.parametrize("p", (5, 7))
def test_rho_and_rho_apply_equal_the_letter_by_letter_fold(p):
    """The chain product of the cached letters against freshly built
    letters multiplied one at a time by *, for random words of up to 12
    letters with exponents up to 3, on the vacuum vector and a vector with
    denominators."""
    rng = random.Random(p)
    deg = 2 * (p - 1)
    for genus in (1, 2):
        n = rep_dim(genus, p)
        for _ in range(8):
            w = empty_word(genus)
            for _ in range(rng.randint(1, 12)):
                w = w * letter(genus, rng.choice(GENUS_CURVES[genus]), rng.choice((-3, -2, -1, 1, 2, 3)))
            mats = [twist_power_matrix(genus, p, c, k) for c, k in w.letters] or [PMatrix.identity(p, n)]
            assert rho(w, p).equal_exact(reduce(mul, mats))
            v = PMatrix.from_rows(
                p, [[CycElem.make(p, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(0, 2))] for _ in range(n)]
            )
            for vec in (vacuum_vector(genus, p), v):
                assert rho_apply(w, p, vec).equal_exact(reduce(lambda x, M: M * x, reversed(mats), vec))


def test_cached_letters_keep_values_and_products_do_not():
    """The letters of a word keep their values at the roots after rho and
    rho_apply, read-only and distinct arrays per letter and prime; the two
    results and the vector keep none."""
    p = 7
    word = parse_word(2, "c1*c3^-1*s^2*c3*c1^-1*c5*c2")
    vec = vacuum_vector(2, p)
    results = [rho(word, p), rho_apply(word, p, vec), vec]
    assert all(X._kept is None for X in results)
    letters = [_letter_matrix(2, p, c, k) for c, k in set(word.letters)]
    arrays = [values for L in letters for values in L._kept.values()]
    assert all(L._kept for L in letters) and all(not a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


@pytest.mark.parametrize("r, dtype", [(R41, np.int64), (ResidueSpec(5, 3000000361, 2562159243), object)])
def test_rho_over_fq_is_read_only_with_cached_letters(r, dtype):
    word = parse_word(2, "c1*c3^-1*s^2")
    M = rho(word, r)
    assert M.dtype == dtype and M.tolist() == [list(row) for row in rho_mod(word, 5, r)]
    single = rho(letter(2, "c3", -1), r)
    assert single is rho(letter(2, "c3", -1), r)  # the cached letter itself
    identity = rho(empty_word(2), r)
    assert identity.dtype == dtype and identity.tolist() == [[int(i == j) for j in range(5)] for i in range(5)]
    for A in (M, single, identity, twist_power_matrix(2, r, "s", 2)):
        with pytest.raises(ValueError):
            A[0, 0] = 1


@pytest.mark.parametrize(
    "r", [R41, ResidueSpec.for_primes(7, 29), ResidueSpec.for_primes(11, 89)], ids=str
)
def test_fq_kernel_inputs_are_residues(r):
    # linalg._product_dtype's float tiers are exact only for inputs in [0, q):
    # the conjugators and their factors, the letters and rho products
    q = r.q

    def residues(M):
        return M.dtype == fq_dtype(len(M), q) and ((0 <= M) & (M < q)).all()

    for genus, curves in GENUS_CURVES.items():
        for curve in curves:
            Q, Qinv, _diag = _twist_conjugators(genus, r, curve)
            assert Q is None or residues(Q) and residues(Qinv)
            for k in (-2, -1, 1, 2):
                M = _letter_matrix_mod(genus, curve, k, r)
                assert residues(M)
                assert residues(rho(letter(genus, curve, k), r))
    for factor in (_left_s_operator, _right_s_operator, _bridge_f_matrix):
        assert all(residues(M) for M in factor(r))
    for word in default_subgroup_walk(r.p, 1, 42).generators + (parse_word(2, "c1*c3^-1*s^2"),):
        assert residues(rho(word, r))


def test_rho_mod_empty_word():
    assert rho_mod(empty_word(2), 5, R41) == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_rho_mod_separating_twist_nontrivial():
    ts = rho_mod(letter(2, "s"), 5, R41)
    assert not fq_is_scalar(ts, 41)
    diag = {ts[i][i] for i in range(5)}
    assert len(diag) >= 2  # at least two distinct diagonal residues


def test_proj_equal_scalar_insensitivity():
    p = 5
    rng = random.Random(0)
    M = rho(random_word(2, 5, 3), p)
    c = elem_A(p) ** rng.randint(1, 9)
    assert M.proj_equal(M.scale(c))
    assert not PMatrix.identity(p, 2).proj_equal(s_matrix(p))


def test_hermitian_form_preserved():
    for p in (5, 7):
        for seed in range(20 if p == 5 else 5):
            assert hermitian_check(random_word(2, 6, seed), p)
    for seed in range(5):
        assert hermitian_check(random_word(1, 6, seed), 5)


def test_hermitian_gram_is_conjugation_invariant():
    G = hermitian_gram(2, 5)
    assert G.conj_transpose().equal_exact(G)


def test_algebra_span_identity_only():
    assert algebra_span_dim([empty_word(2)], R41) == 1


def test_algebra_span_full_matrix_algebra():
    words = [random_word(2, 12, seed) for seed in range(200)]
    assert algebra_span_dim(words, R41) == 25


def test_algebra_span_genus1_matches_closure():
    # the genus-1 image mod J is finite; spanning the enumerated closure
    # agrees with spanning a large word sample
    p = 5
    gens = [rho_mod(letter(1, c, e), p, R41) for c in ("a", "b") for e in (1, -1)]
    closure = enumerate_group(gens, 41, cap=50_000)
    assert closure.complete
    span = fq_rref([[x for row in M for x in row] for M in closure.elements], 41)
    words = [random_word(1, 10, seed) for seed in range(300)]
    assert algebra_span_dim(words, R41) == len(span)


def test_projective_order_helper():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert fq_projective_order(eye, 41) == 1
    ts = rho_mod(letter(2, "s"), 5, R41)
    assert fq_projective_order(ts, 41) == 5


def _projective_order_by_python_products(M, q: int, cap: int):
    """The order loop before numpy powers, kept as the oracle."""
    acc = M
    for k in range(1, cap + 1):
        if fq_is_scalar(acc, q):
            return k
        acc = fq_mat_mul(acc, M, q)
    return None


@pytest.mark.parametrize("p, r, cap", [
    (5, R41, 200),
    (7, ResidueSpec.for_primes(7, 29), 60),
    (5, ResidueSpec(5, 3000000361, 2562159243), 30),  # object dtype
])
def test_projective_order_matches_python_products(p, r, cap):
    # the words of `rep check`'s sampled orders; at p = 7, q = 29 their
    # orders are None, 42, 7, None, 420 with cap 5000
    outcomes = set()
    for seed in range(1000, 1005):
        M = rho_mod(random_word(2, 10, seed), p, r)
        order = fq_projective_order(M, r.q, cap=cap)
        assert order == _projective_order_by_python_products(M, r.q, cap), seed
        outcomes.add(order is None)
        if order is not None:
            # one step short of the order exceeds the cap
            assert fq_projective_order(M, r.q, cap=order - 1) is None
    assert outcomes == {True, False}  # found orders and cap-exceeded ones
