import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtop import linalg
from qtop.cyclotomic import is_prime


def _bareiss_int_det(sub):
    a = [r[:] for r in sub]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            sw = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if sw is None:
                return 0
            a[t], a[sw] = a[sw], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def _minors_gcd(mat, k):
    g = 0
    for rs in itertools.combinations(range(len(mat)), k):
        for cs in itertools.combinations(range(len(mat[0])), k):
            g = math.gcd(g, abs(_bareiss_int_det([[mat[i][j] for j in cs] for i in rs])))
    return g


def test_snf_matches_determinantal_divisors():
    # d_1 ... d_k equals the gcd of all k x k minors
    rng = random.Random(0)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        diag = linalg.snf_diagonal(mat)
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert prod == _minors_gcd(mat, k)
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))


def test_snf_regression_double_presentation_matrix():
    rows = [
        [0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, -1, 0, 0, 0], [0, 1, 0, 0, 0, -1, 0, 0],
    ]
    assert linalg.snf_diagonal(rows) == [1, 1, 1, 1, 1]


def test_hnf_is_canonical_and_spans():
    rng = random.Random(1)
    for _ in range(40):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        basis = linalg.hnf(rows)
        # every original row lies in the lattice of the basis
        for r in rows:
            if any(r):
                assert linalg.lattice_contains(basis, r)
        # pivots positive, entries above pivots reduced
        for i, b in enumerate(basis):
            pc = next(j for j, u in enumerate(b) if u)
            assert b[pc] > 0
            for k in range(i):
                assert 0 <= basis[k][pc] < b[pc]
        # idempotent
        assert linalg.hnf(basis) == basis


def test_hnf_solve_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        basis = linalg.hnf(rows)
        if not basis:
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        target = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(3)]
        sol = linalg.hnf_solve(basis, target)
        assert sol is not None
        rebuilt = [sum(c * b[j] for c, b in zip(sol, basis)) for j in range(3)]
        assert rebuilt == target


def test_fq_rank_and_span():
    assert linalg.fq_rank([[1, 2], [2, 4]], 5) == 1
    assert linalg.fq_rank([[1, 0], [0, 1]], 5) == 2
    span = linalg.FqSpan(5)
    assert span.add([1, 2, 3])
    assert not span.add([2, 4, 6])
    assert span.add([0, 1, 0])
    assert span.dim == 2


def test_bareiss_det_over_integers():
    class IntRing:
        one, zero = 1, 0
        mul = staticmethod(lambda a, b: a * b)
        sub = staticmethod(lambda a, b: a - b)
        exact_div = staticmethod(lambda a, b: a // b)
        is_zero = staticmethod(lambda a: a == 0)

    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert linalg.bareiss_det(mat, IntRing) == _bareiss_int_det(mat)


def test_fq_dtype_guard_boundary():
    # int64 exactly while n (q - 1)^2 < 2^63
    assert linalg.fq_dtype(5, 41) is np.int64
    assert linalg.fq_dtype(5, 3000000361) is object
    q = math.isqrt((2 ** 63 - 1) // 5) + 1  # the largest q with 5 (q - 1)^2 < 2^63
    assert linalg.fq_dtype(5, q) is np.int64
    assert linalg.fq_dtype(5, q + 1) is object


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from((2, 41, 3000000361, 2 ** 61 - 1)),
    n=st.integers(1, 4),
    gens=st.integers(1, 3),
    batch=st.integers(0, 5),
    steps=st.integers(0, 6),
    data=st.data(),
)
def test_fq_walk_matches_python_products(q, n, gens, batch, steps, data):
    residue = st.integers(0, q - 1)
    mats = data.draw(st.lists(
        st.lists(st.lists(residue, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=gens, max_size=gens,
    ))
    vec = data.draw(st.lists(residue, min_size=n, max_size=n))
    picks = data.draw(st.lists(
        st.lists(st.integers(0, gens - 1), min_size=steps, max_size=steps),
        min_size=batch, max_size=batch,
    ))
    rows = linalg.fq_walk(mats, np.array(picks, dtype=np.intp).reshape(batch, steps), vec, q)
    assert rows.shape == (batch, n)
    for row, walk in zip(rows.tolist(), picks):
        expect = tuple(vec)
        for i in reversed(walk):
            expect = linalg.fq_mat_vec(mats[i], expect, q)
        assert tuple(row) == expect


def _next_prime(q, step):
    while not is_prime(q):
        q += step
    return q


def _float64_bound_primes(n):
    """The last prime q with n (q - 1)^2 < 2^53 and the first prime above it."""
    edge = math.isqrt((2 ** 53 - 1) // n) + 1  # the largest q with n (q - 1)^2 < 2^53
    return _next_prime(edge, -1), _next_prime(edge + 1, 1)


# (n, q) on both sides of the float64 bound n (q - 1)^2 = 2^53, and one in
# the int64 tier between 2^53 and 2^63
BOUND_CASES = [(n, q) for n in (3, 7) for q in _float64_bound_primes(n)] + [
    (3, _next_prime(1_500_000_000, 1))
]


@pytest.mark.parametrize("n, q", BOUND_CASES)
def test_fq_matmul_and_walk_exact_at_the_float64_bound(n, q):
    worst = n * (q - 1) ** 2
    assert worst < 2 ** 63 and (worst < 2 ** 53) == (q == _float64_bound_primes(n)[0])
    full = [[q - 1] * n for _ in range(n)]  # every sum is n (q - 1)^2, the largest
    rng = random.Random(q)
    near = [[rng.choice((q - 2, q - 1)) for _ in range(n)] for _ in range(n)]
    # past the bound, these sums too need more than float64's 53 bits
    assert (n * (q - 2) ** 2 >= 2 ** 53) == (worst >= 2 ** 53)
    for a, b in ((full, full), (full, near), (near, full), (near, near)):
        got = linalg.fq_matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
        assert got.dtype == np.int64
        assert tuple(map(tuple, got.tolist())) == linalg.fq_mat_mul(a, b, q)
    picks = [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 0]]
    vec = [q - 1] * n
    rows = linalg.fq_walk([full, near], np.array(picks, dtype=np.intp), vec, q)
    assert rows.dtype == np.int64
    for row, walk in zip(rows.tolist(), picks):
        expect = tuple(vec)
        for i in reversed(walk):
            expect = linalg.fq_mat_vec((full, near)[i], expect, q)
        assert tuple(row) == expect
