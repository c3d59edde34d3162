import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fq_oracles import fq_mat_vec, fq_rref as list_fq_rref
from qtop import linalg, pmatrix
from qtop.cyclotomic import CycElem, is_prime, ring


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


def _snf_inputs():
    # random shapes up to 5 x 6, some with a zero row or column, and two
    # matrices whose Smith forms need four and five alternating HNFs
    rng = random.Random(0)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        size = rng.choice((5, 60, 10 ** 6))
        mat = [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            mat[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for r in mat:
                r[j] = 0
        yield mat
    yield [[4, 2], [4, -3]]
    yield [[-2, 2, -1, -4], [3, 3, 4, 0], [4, -4, 0, 4], [-1, -5, 3, 3]]


def test_snf_matches_determinantal_divisors():
    # d_1 ... d_k equals the gcd of all k x k minors
    for mat in _snf_inputs():
        m, n = len(mat), len(mat[0])
        diag = linalg.snf_diagonal(mat)
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert prod == _minors_gcd(mat, k)
        if len(diag) < min(m, n):  # the number of factors is the rank
            assert _minors_gcd(mat, len(diag) + 1) == 0
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))


@pytest.mark.parametrize("rows", [[], [[]], [[0, 0], [0, 0]]])
def test_snf_of_no_entries_or_zeros_is_empty(rows):
    assert linalg.snf_diagonal(rows) == []


def test_snf_orders_factors_by_gcd_and_lcm():
    # the diagonal HNFs leave 4, 6, 10 in place; the Smith form is 2 | 2 | 60
    assert linalg.snf_diagonal([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]


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


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def xgcd_hnf(rows):
    """HNF by xgcd combinations of row pairs, the oracle for linalg.hnf."""
    work, basis = [list(r) for r in rows if any(r)], []
    for col in range(len(rows[0]) if rows else 0):
        carrier, rest = None, []
        for r in work:
            if not r[col]:
                rest.append(r)
            elif carrier is None:
                carrier = r
            else:
                g, x, y = _xgcd(carrier[col], r[col])
                a, b = carrier[col] // g, r[col] // g
                new_rest = [b * u - a * v for u, v in zip(carrier, r)]
                carrier = [x * u + y * v for u, v in zip(carrier, r)]
                if any(new_rest):
                    rest.append(new_rest)
        if carrier is not None:
            basis.append(carrier if carrier[col] > 0 else [-u for u in carrier])
        work = rest
    for i, row in enumerate(basis):
        pc = next(j for j, u in enumerate(row) if u)
        for k in range(i):
            q = basis[k][pc] // row[pc]
            basis[k] = [u - q * v for u, v in zip(basis[k], row)]
    return basis


def test_hnf_matches_xgcd_oracle():
    """The HNF is unique, so Euclidean column clearing gives the oracle's
    rows, on full-rank, rank-deficient and tall inputs."""
    rng = random.Random(3)
    for _ in range(60):
        n, m, size = rng.randint(1, 6), rng.randint(1, 9), rng.choice((2, 9, 10 ** 6))
        rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # a row that depends on the others
            rows.append([sum(r[j] * rng.randint(-3, 3) for r in rows) for j in range(n)])
        assert linalg.hnf(rows) == xgcd_hnf(rows)


def test_lattice_contains_combinations_and_not_off_lattice_vectors():
    rng = random.Random(2)
    shifted = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        basis = linalg.hnf(rows)
        coeffs = [rng.randint(-3, 3) for _ in basis]
        target = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
        assert linalg.lattice_contains(basis, target)
        assert linalg.lattice_contains(basis, tuple(target))
        # s times a unit vector at a pivot column lies in the lattice only
        # if the pivot divides s, so a shift there by 0 < s < pivot leaves it
        for b in basis:
            pc = next(j for j, u in enumerate(b) if u)
            if b[pc] > 1:
                off = list(target)
                off[pc] += rng.randint(1, b[pc] - 1)
                assert not linalg.lattice_contains(basis, off)
                shifted += 1
    assert shifted > 10
    # a vector outside the span is rejected too
    assert not linalg.lattice_contains([[1, 0, 0]], [1, 0, 1])
    assert linalg.lattice_contains([], [0, 0]) and not linalg.lattice_contains([], [0, 1])


def test_fq_rank_and_span():
    assert len(linalg.fq_rref([[1, 2], [2, 4]], 5)) == 1
    assert len(linalg.fq_rref([[1, 0], [0, 1]], 5)) == 2
    # [2, 4, 6] is twice [1, 2, 3]; [0, 1, 0] enlarges the span
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]
    assert linalg.fq_rref(rows, 5).tolist() == [[1, 0, 3], [0, 1, 0]]
    assert len(linalg.fq_rref([], 5)) == 0


@pytest.mark.parametrize("q", [2, 5, 41, 3037000493, 4294967311])
def test_fq_rref_matches_list_echelon(q):
    """Random products A B with A m x r and B r x n have rank at most r;
    the numpy echelon equals the list oracle's rows, on the int64 tier
    (3037000493 is the largest prime with (q - 1)^2 < 2^63) and on the
    object tier (4294967311)."""
    assert is_prime(q)
    assert linalg.fq_dtype(1, q) is (np.int64 if q < 4294967311 else object)
    rng = random.Random(q)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 24)
        r = rng.randint(0, min(m, n))
        A = [[rng.randrange(q) for _ in range(r)] for _ in range(m)]
        B = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
        rows = [[sum(a * b[j] for a, b in zip(row, B)) % q for j in range(n)] for row in A]
        echelon = linalg.fq_rref(rows, q)
        assert echelon.dtype == linalg.fq_dtype(1, q)
        assert echelon.tolist() == list_fq_rref(rows, q)
        assert len(echelon) <= r
        assert linalg.fq_rref(np.array(rows, dtype=object), q).tolist() == echelon.tolist()


def test_bareiss_det_over_integers():
    # the integers inside Z[zeta_28, 1/7]: bareiss_det works on the elements'
    # own operators and reads only one and zero from the ring
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        embedded = [[CycElem.from_int(7, x) for x in row] for row in mat]
        assert linalg.bareiss_det(embedded, ring(7)) == CycElem.from_int(7, _bareiss_int_det(mat))


def test_fq_dtype_guard_boundary():
    # int64 exactly while n (q - 1)^2 < 2^63
    assert linalg.fq_dtype(5, 41) is np.int64
    assert linalg.fq_dtype(5, 3000000361) is object
    q = math.isqrt((2 ** 63 - 1) // 5) + 1  # the largest q with 5 (q - 1)^2 < 2^63
    assert linalg.fq_dtype(5, q) is np.int64
    assert linalg.fq_dtype(5, q + 1) is object


def _int64_edge_prime(n):
    """The largest prime q with n (q - 1)^2 < 2^63, the top of fq_dtype's
    int64 tier."""
    q = math.isqrt((2 ** 63 - 1) // n) + 1
    while not is_prime(q):
        q -= 1
    return q


def _walk(layout, mats, picks, vec, q):
    """fq_walk in the named layout: no stacked row width reaches an
    infinite _BLOCKED_WIDTH, and every one reaches 0."""
    with mock.patch.object(linalg, "_BLOCKED_WIDTH", {"stacked": math.inf, "blocked": 0}[layout]):
        return linalg.fq_walk(mats, np.array(picks, dtype=np.intp), vec, q)


def _python_walk(mats, walk, vec, q):
    expect = tuple(vec)
    for i in reversed(walk):
        expect = fq_mat_vec(mats[i], expect, q)
    return expect


# fq_apply reduces between products at 3000000361 for n = 1 (int64) and
# at the int64 edge prime for every n <= 4; 1000003 is the float64 tier
# and 2^61 - 1 the object tier
@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from((2, 41, 1_000_003, 3000000361, _int64_edge_prime(5), 2 ** 61 - 1)),
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
    picks = np.array(picks, dtype=np.intp).reshape(batch, steps)
    expect = [_python_walk(mats, walk, vec, q) for walk in picks.tolist()]
    for layout in ("stacked", "blocked"):
        rows = _walk(layout, mats, picks, vec, q)
        assert rows.shape == (batch, n) and rows.dtype == linalg.fq_dtype(n, q)
        assert list(map(tuple, rows.tolist())) == expect
    assert np.array_equal(linalg.fq_apply([], vec, q), vec)
    for row, walk in zip(expect, picks.tolist()):
        applied = linalg.fq_apply([np.array(mats[i], dtype=linalg.fq_dtype(n, q)) for i in walk], vec, q)
        assert applied.dtype == linalg.fq_dtype(n, q) and tuple(applied.tolist()) == row
    # each row's block slot reads that row, and cap is the largest block
    slot, fill, cap = linalg._walk_blocks(picks, gens)
    assert slot.shape == (steps, batch) and fill.shape == (steps, gens * cap)
    for step in range(steps):
        assert fill[step][slot[step]].tolist() == list(range(batch))
    assert cap == max((np.bincount(picks[:, step]).max() for step in range(steps) if batch), default=0)


# one prime per tier of _product_dtype at n = 3
TIER_PRIMES = {np.float32: 41, np.float64: 1_000_003, np.int64: 1_500_000_001, object: 2 ** 61 - 1}

WALK_EDGES = {
    "no steps": (3, np.zeros((4, 0), dtype=np.intp)),
    "no rows": (3, np.zeros((0, 4), dtype=np.intp)),
    "one row": (3, [[2, 0, 1, 1]]),
    "one generator": (1, np.zeros((4, 3), dtype=np.intp)),
    "a generator no row picks": (3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    "every row one generator": (3, [[1, 2], [1, 0], [1, 1]]),
}


@pytest.mark.parametrize("edge", WALK_EDGES)
@pytest.mark.parametrize("tier", TIER_PRIMES, ids=lambda t: getattr(t, "__name__", str(t)))
@pytest.mark.parametrize("layout", ("stacked", "blocked"))
def test_fq_walk_edge_shapes_in_every_tier(layout, tier, edge):
    n, q = 3, TIER_PRIMES[tier]
    assert linalg._product_dtype(n, q) is tier
    gens, picks = WALK_EDGES[edge]
    rng = random.Random(q)
    mats = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(gens)]
    vec = [q - 1, 0, rng.randrange(q)]
    rows = _walk(layout, mats, picks, vec, q)
    assert rows.shape == (len(picks), n) and rows.dtype == linalg.fq_dtype(n, q)
    assert list(map(tuple, rows.tolist())) == [_python_walk(mats, walk, vec, q) for walk in np.asarray(picks).tolist()]
    if edge == "every row one generator":
        assert linalg._walk_blocks(np.array(picks, dtype=np.intp), gens)[2] == len(picks)


@pytest.mark.parametrize(
    "n, q", [(5, 41), (5, 61), (8, 257), (1, 3000000361), (4, _int64_edge_prime(5)), (2, 2 ** 61 - 1)]
)
def test_fq_apply_exact_at_the_worst_case_bound(n, q):
    # every entry q - 1, so after k products each entry is (q - 1)^(k+1) n^k,
    # the bound fq_apply reduces by: at (5, 61) it reaches 60 * 300^6 < 2^63
    # before a reduction, and one more product would pass 2^63; at (8, 257)
    # five products would reach 256^6 * 8^5 = 2^63 exactly, one past int64
    full = np.full((n, n), q - 1, dtype=linalg.fq_dtype(n, q))
    for length in (1, 6, 7, 20):
        got = linalg.fq_apply([full] * length, [q - 1] * n, q)
        assert got.tolist() == [pow(q - 1, length + 1, q) * pow(n, length, q) % q] * n


def _next_prime(q, step):
    while not is_prime(q):
        q += step
    return q


def _float64_bound_primes(n):
    """The last prime q with n (q - 1)^2 < 2^53 and the first prime above it."""
    edge = math.isqrt((2 ** 53 - 1) // n) + 1  # the largest q with n (q - 1)^2 < 2^53
    return _next_prime(edge, -1), _next_prime(edge + 1, 1)


def _check_walk_at_the_bound(n, q, full, near, rng):
    """Walks over full, near and more matrices of entries q - 2 and q - 1:
    two generators take fq_walk's stacked layout, and enough of them to
    reach _BLOCKED_WIDTH take the blocked one."""
    vec = [q - 1] * n
    for gens in (2, -(-linalg._BLOCKED_WIDTH // n)):
        mats = [full, near] + [
            [[rng.choice((q - 2, q - 1)) for _ in range(n)] for _ in range(n)] for _ in range(gens - 2)
        ]
        picks = [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 0]] + [
            [rng.randrange(gens) for _ in range(3)] for _ in range(4)
        ]
        rows = linalg.fq_walk(mats, np.array(picks, dtype=np.intp), vec, q)
        assert rows.dtype == np.int64
        assert list(map(tuple, rows.tolist())) == [_python_walk(mats, walk, vec, q) for walk in picks]


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
    _check_walk_at_the_bound(n, q, full, near, rng)


@pytest.mark.parametrize("p", (5, 7, 13))
@pytest.mark.parametrize("wide", (False, True), ids=("width=deg", "width=91"))
def test_stacked_fq_matmul_exact_at_the_chain_moduli(p, wide):
    """The exact chain's products: a (deg, n, n) stack times a (deg, n, m)
    stack, mod the largest prime of pmatrix.moduli(p, width, .), with
    n = width so that n (q - 1)^2 sits just under 2^53.  Residues q - 1
    (and a stack of q - 2 and q - 1) give every slice its Python-int
    product."""
    deg = ring(p).degree
    n = 91 if wide else deg
    q = pmatrix.moduli(p, n, 1)[0]
    assert n * (q - 1) ** 2 < 2 ** 53
    assert not any(map(is_prime, range(q + 4 * p, math.isqrt((2 ** 53 - 1) // n) + 2, 4 * p)))
    assert linalg._product_dtype(n, q) is np.float64
    rng = np.random.default_rng(p)
    full = np.full((deg, n, n), q - 1, dtype=np.int64)
    near = rng.choice(np.array([q - 2, q - 1]), size=(deg, n, n))
    for m in (1, 3):
        for a, b in ((full, full), (near, full), (full, near)):
            b = b[:, :, :m]
            got = linalg.fq_matmul(a, b, q)
            assert got.dtype == np.int64 and got.shape == (deg, n, m)
            for x, y, z in zip(a.astype(object), b.astype(object), got):
                assert np.array_equal(z, (x @ y) % q)


def _float32_edge(n):
    """The largest q with n (q - 1)^2 < 2^24."""
    return math.isqrt((2 ** 24 - 1) // n) + 1


def _float32_bound_primes(n):
    """The last prime q with n (q - 1)^2 < 2^24 and the first prime above it."""
    edge = _float32_edge(n)
    return _next_prime(edge, -1), _next_prime(edge + 1, 1)


@pytest.mark.parametrize("n", (3, 7, 55))
def test_product_dtype_leaves_float32_exactly_at_its_bound(n):
    edge = _float32_edge(n)
    assert n * (edge - 1) ** 2 < 2 ** 24 <= n * edge ** 2
    assert linalg._product_dtype(n, edge) is np.float32
    assert linalg._product_dtype(n, edge + 1) is np.float64


# (n, q) on both sides of the float32 bound n (q - 1)^2 = 2^24; n = 55 is
# the genus-2 dimension at p = 11
FLOAT32_CASES = [(n, q) for n in (3, 7, 55) for q in _float32_bound_primes(n)]


@pytest.mark.parametrize("n, q", FLOAT32_CASES)
def test_fq_matmul_and_walk_exact_at_the_float32_bound(n, q):
    worst = n * (q - 1) ** 2
    below = q == _float32_bound_primes(n)[0]
    assert (worst < 2 ** 24) == below
    assert linalg._product_dtype(n, q) is (np.float32 if below else np.float64)
    full = [[q - 1] * n for _ in range(n)]  # every sum is n (q - 1)^2, the largest
    rng = random.Random(q)
    near = [[rng.choice((q - 2, q - 1)) for _ in range(n)] for _ in range(n)]
    # past the bound, these sums too need more than float32's 24 bits
    assert (n * (q - 2) ** 2 >= 2 ** 24) == (worst >= 2 ** 24)
    for a, b in ((full, full), (full, near), (near, full), (near, near)):
        got = linalg.fq_matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
        assert got.dtype == np.int64
        assert tuple(map(tuple, got.tolist())) == linalg.fq_mat_mul(a, b, q)
    _check_walk_at_the_bound(n, q, full, near, rng)


# -- bulk pick draws ------------------------------------------------------------


PICK_SIZES = (1, 2, 3, 12, 13, 16, 17, 255)


@pytest.mark.parametrize("n", PICK_SIZES)
def test_draw_picks_equals_one_choice_per_pick(n):
    for seed, count in enumerate((0, 1, 2, 7, 48, 1536, 5000)):
        ours, ref = random.Random(seed), random.Random(seed)
        got = linalg.draw_picks(ours, n, count)
        assert got.dtype == np.intp and got.shape == (count,)
        assert got.tolist() == [ref.choice(range(n)) for _ in range(count)]
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", PICK_SIZES)
def test_draw_picks_in_small_draws_continue_one_large_draw(n):
    rng, whole = random.Random(n), random.Random(n)
    sizes = [0, 1, 5, 0, 33, 2, 400, 9]
    parts = [linalg.draw_picks(rng, n, size).tolist() for size in sizes]
    assert sum(parts, []) == linalg.draw_picks(whole, n, sum(sizes)).tolist()
    assert rng.getstate() == whole.getstate()
    # the stream continues where the picks stopped, for choice as for draw_picks
    assert rng.random() == whole.random()


def test_draw_picks_at_the_word_size_limit():
    for n in (2 ** 31, 2 ** 32 - 1):
        ours, ref = random.Random(n), random.Random(n)
        assert linalg.draw_picks(ours, n, 50).tolist() == [ref.choice(range(n)) for _ in range(50)]
        assert ours.getstate() == ref.getstate()
    for n in (0, 2 ** 32):
        with pytest.raises(ValueError):
            linalg.draw_picks(random.Random(0), n, 1)
