"""The multi-modular exact matrix kernel against the schoolbook product,
the packed Kronecker product and sympy."""

from functools import reduce
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qtop import manifolds, pmatrix
from qtop.cyclotomic import CycElem, ResidueSpec, RingUsageError, residue_primes, ring
from qtop.pmatrix import PMatrix, l1_spread, moduli, prime_count, product, product_spread, scalar_ring


def schoolbook_mul(A: PMatrix, B: PMatrix) -> PMatrix:
    """Entry by entry in CycElem arithmetic: the oracle for PMatrix.__mul__."""
    a, b = A.entries, B.entries
    rows = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = CycElem.zero(A.p)
            for k in range(len(b)):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        rows.append(row)
    return PMatrix.from_rows(A.p, rows)


class Kronecker:
    """Kronecker substitution zeta -> 2^B for dot products of length n whose
    coefficient products are bounded by m.

    An element x over p^E packs into the integer sum c_k 2^(B k), where c is
    the coefficient vector of x scaled by p^(E - e).  The product of two
    packed entries packs the polynomial product, and a sum of n of them has
    2 deg - 1 digits, each at most n deg m < 2^(B - 2) in absolute value, so
    balanced base-2^B digits recover it exactly.
    """

    def __init__(self, p: int, n: int, m: int):
        self.p = p
        deg = ring(p).degree
        self.B = B = (n * deg * m).bit_length() + 2
        self.half = 1 << (B - 1)
        self.mask = (1 << B) - 1
        self.shifts = range(0, B * (2 * deg - 1), B)
        # adding half to every digit makes them all non-negative
        self.offset = sum(self.half << s for s in self.shifts)

    def pack(self, x: CycElem, E: int) -> int:
        B, acc = self.B, 0
        for c in reversed(x.coeffs):
            acc = (acc << B) + c
        return acc if x.e == E else acc * self.p ** (E - x.e)

    def unpack(self, packed: int, e: int) -> CycElem:
        """The element packed / p^e."""
        if not packed:
            return CycElem.zero(self.p)
        t, mask, half = packed + self.offset, self.mask, self.half
        return CycElem.make(self.p, [((t >> s) & mask) - half for s in self.shifts], e)


def _common_bound(p: int, elems) -> tuple[int, int]:
    """(E, M): the largest denominator exponent among elems, and the largest
    |c| among their coefficients brought over the one denominator p^E."""
    E = max(x.e for x in elems)
    return E, max(p ** (E - x.e) * max(map(abs, x.coeffs)) for x in elems)


def kronecker_mul(A: PMatrix, B: PMatrix) -> PMatrix:
    """The packed product: each entry one Python integer, each output entry
    a sum of integer products unpacked once.  The second oracle."""
    p, n = A.p, A.n
    (ea, ma), (eb, mb) = (_common_bound(p, [x for row in M.entries for x in row]) for M in (A, B))
    kron = Kronecker(p, n, ma * mb)
    rows = [[kron.pack(x, ea) for x in row] for row in A.entries]
    cols = [[kron.pack(x, eb) for x in col] for col in zip(*B.entries)]
    out = [[kron.unpack(sum(map(mul, ra, cb)), ea + eb) for cb in cols] for ra in rows]
    return PMatrix.from_rows(p, out)


def column(M: PMatrix, j: int) -> PMatrix:
    """Column j of M as a one-column PMatrix, an exact vector."""
    return PMatrix.from_rows(M.p, [[row[j]] for row in M.entries])


# small, moderate and up-to-2^200 coefficients, either sign
coefficient = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**20), 2**20),
    st.integers(-(2**200), 2**200),
)


@st.composite
def elements(draw, p: int):
    if draw(st.integers(0, 3)) == 0:
        return CycElem.zero(p)
    coeffs = draw(st.lists(coefficient, min_size=ring(p).degree, max_size=ring(p).degree))
    return CycElem.make(p, coeffs, draw(st.integers(0, 3)))


@st.composite
def matrices(draw, p: int, n: int):
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return PMatrix.from_rows(
        p,
        [
            [CycElem.zero(p) if i in zero_rows else draw(elements(p)) for _ in range(n)]
            for i in range(n)
        ],
    )


PRIMES = (5, 7, 11, 13)


@st.composite
def matrix_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    return draw(matrices(p, n)), draw(matrices(p, n))


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_packed_product_equals_schoolbook(pair):
    A, B = pair
    AB = A * B
    assert AB.entries == schoolbook_mul(A, B).entries == kronecker_mul(A, B).entries
    for j in range(A.n):
        b = column(B, j)
        Ab = A * b
        assert Ab.num.shape == (A.n, 1, ring(A.p).degree)
        assert Ab.entries == column(AB, j).entries == schoolbook_mul(A, b).entries
        assert Ab.entries == kronecker_mul(A, b).entries


@st.composite
def root_diagonals(draw, p: int, n: int):
    """diag(zeta^E_1, ..., zeta^E_n), any exponents in [0, 4p)."""
    return PMatrix.diagonal(p, [CycElem.root_power(p, draw(st.integers(0, 4 * p - 1))) for _ in range(n)])


@st.composite
def products_with_root_diagonals(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 4))
    M = draw(matrices(p, n))
    return M, draw(root_diagonals(p, n)), draw(root_diagonals(p, n))


@settings(max_examples=40, deadline=None)
@given(products_with_root_diagonals())
def test_root_diagonal_products_equal_schoolbook(ops):
    """A root-of-unity diagonal on either side, or two of them; by a column
    it moves each entry of the vector by a root of unity."""
    M, D, D2 = ops
    for A, B in ((D, M), (M, D), (D, D2), (D, M * D2)):
        assert (A * B).entries == schoolbook_mul(A, B).entries
    for j in range(M.n):
        m = column(M, j)
        assert (D * m).entries == schoolbook_mul(D, m).entries == column(schoolbook_mul(D, M), j).entries


def test_non_root_diagonals_take_the_packed_product():
    """Diagonals with 2, zeta/p or 0 on them and a near-diagonal matrix:
    the products equal the schoolbook product."""
    p, n = 7, 3
    z = CycElem.root_power(p, 1)
    two, z_over_p = CycElem.from_int(p, 2), CycElem.make(p, list(z.coeffs), 1)
    M = PMatrix.from_rows(
        p, [[CycElem.make(p, [i - j + k for k in range(12)], j) for j in range(n)] for i in range(n)]
    )
    near_misses = [
        PMatrix.diagonal(p, [z, two, z]),
        PMatrix.diagonal(p, [z_over_p, z, z]),
        PMatrix.diagonal(p, [z, z, CycElem.zero(p)]),
        PMatrix.from_rows(p, [[z, z, CycElem.zero(p)], [CycElem.zero(p), z, CycElem.zero(p)], [CycElem.zero(p)] * 2 + [z]]),
    ]
    for N in near_misses:
        for A, B in ((N, M), (M, N)):
            assert (A * B).entries == schoolbook_mul(A, B).entries
        m = column(M, 0)
        assert (N * m).entries == schoolbook_mul(N, m).entries == kronecker_mul(N, m).entries


def test_extreme_digits():
    """Equal coefficients of equal sign put the middle digit of an entry at
    its bound n deg max|a| max|b|; the packing width must still hold it."""
    for p in (5, 7):
        deg = ring(p).degree
        for n in (1, 2, 4):
            for m in (1, 3, 2**64 - 1, 2**200):
                for sign in (1, -1):
                    x = CycElem.make(p, [sign * m] * deg)
                    A = PMatrix.from_rows(p, [[x] * n] * n)
                    B = PMatrix.from_rows(p, [[CycElem.make(p, [m] * deg)] * n] * n)
                    assert (A * B).entries == schoolbook_mul(A, B).entries
                    b = column(B, 0)
                    assert (A * b).entries == schoolbook_mul(A, b).entries == kronecker_mul(A, b).entries


def test_column_products_of_zero_and_identity():
    p, n = 7, 3
    A = PMatrix.from_rows(
        p, [[CycElem.make(p, [i + j - k for k in range(12)], j) for j in range(n)] for i in range(n)]
    )
    zero = scalar_ring(p).vector([CycElem.zero(p)] * n)
    assert A * zero == zero
    assert (A * PMatrix.identity(p, n)).entries == A.entries
    assert (PMatrix.identity(p, n) * A).entries == A.entries
    for j in range(n):
        e_j = scalar_ring(p).vector([CycElem.one(p) if i == j else CycElem.zero(p) for i in range(n)])
        assert A * e_j == column(A, j)


def test_mismatched_inner_dimensions_raise():
    p = 5
    x = CycElem.root_power(p, 1)
    A, v = PMatrix.identity(p, 3), scalar_ring(p).vector([x, x])
    with pytest.raises(RingUsageError):
        A * v
    with pytest.raises(RingUsageError):
        v * A
    with pytest.raises(RingUsageError):
        A * PMatrix.identity(p, 2)
    assert (scalar_ring(p).vector([x, x, x]) * PMatrix.identity(p, 1)).entries == ((x,),) * 3



def test_pow_by_square_and_multiply_and_negative_exponent_raises():
    p = 5
    A = PMatrix.from_rows(p, [[CycElem.one(p), CycElem.root_power(p, 3)], [CycElem.zero(p), CycElem.one(p)]])
    assert (A ** 0).entries == PMatrix.identity(p, 2).entries
    power = A
    for k in range(1, 9):
        assert (A ** k).entries == power.entries
        power = power * A
    with pytest.raises(RingUsageError):
        A ** -1


def _poly(x: CycElem, z):
    return sympy.Poly(list(reversed(x.coeffs)), z, domain="QQ") * sympy.Rational(1, x.p**x.e)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_product_matches_sympy_cyclotomic_remainder(p, data):
    """Each entry of A B is sum_k a_ik b_kj reduced mod Phi_4p, over the
    common denominator of the operands."""
    n = 3
    A, B = data.draw(matrices(p, n)), data.draw(matrices(p, n))
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(4 * p, z), z, domain="QQ")
    ea = max(x.e for row in A.entries for x in row)
    eb = max(x.e for row in B.entries for x in row)
    AB = A * B
    for i in range(n):
        for j in range(n):
            total = sympy.Poly(0, z, domain="QQ")
            for k in range(n):
                total += _poly(A.entries[i][k], z) * _poly(B.entries[k][j], z)
            expected = total.rem(phi) * p ** (ea + eb)
            got = _poly(AB.entries[i][j], z) * p ** (ea + eb)
            assert got == expected
            # the product's numerator over p^(ea + eb) is integral
            assert all(c.q == 1 for c in got.all_coeffs())


def test_product_spread_is_two_deg_minus_two():
    """c_p, the growth of one coefficient of a reduced product, pinned for
    p = 5 ... 19 against a direct count over every pair of monomials."""
    for p in (5, 7, 11, 13, 17, 19):
        spec = ring(p)
        deg = spec.degree
        direct = max(
            sum(abs(spec.reduce_poly([0] * (a + b) + [1])[c]) for a in range(deg) for b in range(deg))
            for c in range(deg)
        )
        assert product_spread(p) == direct == 2 * deg - 2


def test_moduli_are_word_size_primes_of_the_float64_tier():
    for p, width in ((5, 5), (7, 14), (13, 91), (17, 32)):
        qs = moduli(p, width, 5)
        assert list(qs) == sorted(qs, reverse=True) and len(set(qs)) == 5
        for q in qs:
            assert q % (4 * p) == 1 and sympy.isprime(q)
            assert width * (q - 1) ** 2 < 2**53
        # no prime q = 1 mod 4p between the largest and the bound is left out
        q = qs[0] + 4 * p
        while width * (q - 1) ** 2 < 2**53:
            assert not sympy.isprime(q)
            q += 4 * p


def test_prime_count_edges():
    """The primes' product Q must exceed twice the bound: a bound just
    above Q_k / 2, or above Q_k, takes one prime more than one at (Q_k - 1) / 2."""
    for p, width in ((5, 5), (7, 14), (13, 91)):
        assert prime_count(p, width, 0) == 0
        Q = 1
        for k in range(1, 5):
            Q *= moduli(p, width, k)[-1]
            assert prime_count(p, width, (Q - 1) // 2) == k
            assert prime_count(p, width, (Q - 1) // 2 + 1) == k + 1
            assert prime_count(p, width, Q + 1) == k + 1


def test_a_product_just_past_k_primes_takes_k_plus_one(monkeypatch):
    """A 1 x 1 product whose bound max|a| max|b| c_p sits just above Q_k / 2
    is recombined from k + 1 primes, and equals the schoolbook product."""
    used = []
    lift = pmatrix._symmetric_lift
    monkeypatch.setattr(pmatrix, "_symmetric_lift", lambda res, qs: used.append(len(qs)) or lift(res, qs))
    p = 7
    deg, spread = ring(p).degree, product_spread(p)
    Q = 1
    for k in range(1, 4):
        Q *= moduli(p, deg, k)[-1]
        m = Q // 2 // spread + 1  # m c_p > Q_k / 2 >= (m - 1) c_p
        A = PMatrix.from_rows(p, [[CycElem.make(p, [m] + [-m] * (deg - 1))]])
        B = PMatrix.from_rows(p, [[CycElem.make(p, [1] * deg)]])
        assert (A * B).entries == schoolbook_mul(A, B).entries
        assert used[-1] == k + 1


@st.composite
def chains(draw):
    """1 to 8 n x n matrices over one p, with coefficients up to 2^200 and
    denominators up to p^3; the last factor is a matrix or one column."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    mats = draw(st.lists(matrices(p, n), min_size=1, max_size=8))
    if draw(st.booleans()):
        mats[-1] = column(mats[-1], draw(st.integers(0, n - 1)))
    return mats


@settings(max_examples=40, deadline=None)
@given(chains())
def test_chain_product_equals_the_folded_oracles(mats):
    got = product(mats)
    assert got.entries == reduce(schoolbook_mul, mats).entries == reduce(kronecker_mul, mats).entries
    assert got.equal_exact(reduce(mul, mats))


def test_a_zero_factor_anywhere_gives_the_zero_product():
    p, n = 7, 3
    x = CycElem.make(p, list(range(-5, 7)), 2)
    A = PMatrix.from_rows(p, [[x * CycElem.root_power(p, i + 2 * j) for j in range(n)] for i in range(n)])
    zero = PMatrix(p, 0, np.zeros((n, n, ring(p).degree), dtype=np.int64))
    for last in (A, column(A, 1)):
        for at in range(4):
            mats = [A] * 4 + [last]
            mats[at] = zero
            got = product(mats)
            assert got.equal_exact(reduce(schoolbook_mul, mats))
            assert got.e == 0 and not got.num.any() and got.num.shape == (n, last.num.shape[1], ring(p).degree)


def test_a_run_lifts_when_its_primes_run_out(monkeypatch):
    """Five factors 2 on x = m zeta at p = 7.  The first product's bound
    2 m c_p sets the run's k primes, and each factor grows the bound on
    the numerators by 2K (the L1 form, K = l1_spread(p)).  With m the half
    product of the primes over (2K)^3, the first run takes three factors
    and lifts, and the second takes the last two on k primes again.  From
    m + 1 on, the third factor no longer fits: three runs of two, two and
    one factors."""
    used = []
    lift = pmatrix._symmetric_lift
    monkeypatch.setattr(pmatrix, "_symmetric_lift", lambda res, qs: used.append(len(qs)) or lift(res, qs))
    p = 7
    deg, grow = ring(p).degree, 2 * l1_spread(p)
    two = PMatrix.from_rows(p, [[CycElem.from_int(p, 2)]])
    Q = 1
    for k in range(1, 4):
        Q *= moduli(p, deg, k)[-1]
        m = (Q - 1) // 2 // grow**3
        for x_m, runs in ((m, 2), (m + 1, 3)):
            x = PMatrix.from_rows(p, [[CycElem.make(p, [0, x_m] + [0] * (deg - 2))]])
            used.clear()
            mats = [two] * 5 + [x]
            assert product(mats).entries == reduce(schoolbook_mul, mats).entries
            assert used == [k] * runs


# (p, description, the primes of each lift) of the RT invariant, letters warm
LIFT_SCHEDULES = [
    (13, "heegaard:2:c1*c3", [2, 2]),
    (13, "mtorus:2:c1*c3^-1*c5", [2, 2]),
    (7, "heegaard:2:c4*c5*c2*c1^-1*s^-1*c1*c4^-1*c3*s*c3*c5*c2^-1", [1] * 6),
    (7, "mtorus:2:c4*c5*c2*c1^-1*s^-1*c1*c4^-1*c3*s*c3*c5*c2^-1", [1, 1, 2, 1, 1]),
    (7, "heegaard:2:c5^-1*c4*s*c5^-1*c1^-1*c2*c3*c2*c3*c1^-1*c4^-1*s", [1] * 5),
    (7, "mtorus:2:c5^-1*c4*s*c5^-1*c1^-1*c2*c3*c2*c3*c1^-1*c4^-1*s", [1] * 6),
    (7, "heegaard:2:c5*c3*s^-1*c1*s*c1*c2*c4*c2*c5^-1*c4*c3", [1] * 5),
    (7, "mtorus:2:c5*c3*s^-1*c1*s*c1*c2*c4*c2*c5^-1*c4*c3", [1, 1, 1, 1, 2]),
]


@pytest.mark.parametrize("p, desc, lifts", LIFT_SCHEDULES)
def test_rt_chains_lift_on_their_pinned_schedule(monkeypatch, p, desc, lifts):
    """The RT chains of the CI's two p = 13 reports and of three 12-letter
    words at p = 7 lift as often, and on as many primes, as pinned: a
    looser run bound would lift less often and a tighter one more."""
    desc = manifolds.parse_desc(desc)
    expected = manifolds.rt_closed(desc, p)  # warms the letters
    used = []
    lift = pmatrix._symmetric_lift
    monkeypatch.setattr(pmatrix, "_symmetric_lift", lambda res, qs: used.append(len(qs)) or lift(res, qs))
    assert manifolds.rt_closed(desc, p) == expected
    assert used == lifts


def test_kept_values_belong_to_one_matrix_and_one_prime(monkeypatch):
    """A kept matrix holds its values at the roots per prime, read-only,
    each equal to its reduction at that root (times p^e) and sharing no
    memory with another prime's or matrix's; a matrix not kept, and every
    run's lifted product, holds none."""
    p = 7
    deg = ring(p).degree
    lifted = []
    run = pmatrix._run
    monkeypatch.setattr(pmatrix, "_run", lambda *args: lifted.append(run(*args)) or lifted[-1])
    big = [CycElem.make(p, [(-1) ** (i + k) * 2**40 + i * k for k in range(deg)], i % 2) for i in range(4)]
    A = PMatrix.from_rows(p, [[big[i], big[3 - i]] for i in range(2)]).keep_values()
    B = PMatrix.from_rows(p, [[big[2], CycElem.root_power(p, 5)], [big[1], big[0]]]).keep_values()
    C = PMatrix.from_rows(p, [[big[3], big[2]], [big[0], big[1]]])
    got = product([A, C, B, A, B])
    assert got.equal_exact(reduce(schoolbook_mul, [A, C, B, A, B]))
    assert len(lifted) > 1 and all(X._kept is None for X in lifted + [got, C])
    assert len(A._kept) > 1 and B._kept
    arrays = []
    for M in (A, B):
        for q, values in M._kept.items():
            assert not values.flags.writeable and values.shape == (deg, 2, 2)
            root = ResidueSpec.for_primes(p, q).root
            roots = [pow(root, t, q) for t in range(1, 4 * p) if t % 2 and t % p]
            scale = p**M.e % q
            for values_at, w in zip(values, roots):
                expected = np.array(M.reduce(ResidueSpec(p, q, w)), dtype=object) * scale % q
                assert values_at.tolist() == expected.tolist()
            arrays.append(values)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_values_are_kept_up_to_two_megabytes_per_prime():
    """n^2 deg float64 values per prime: n = 140 at p = 7 is 1.9 MB and is
    kept, n = 150 is 2.2 MB and is not."""
    for n, kept in ((140, True), (150, False)):
        M = PMatrix(7, 0, np.zeros((n, n, 12), dtype=np.int64)).keep_values()
        assert (M._kept is not None) == kept


def test_int64_and_object_garner_paths_agree_at_the_int64_edge():
    """Values around +-2^62 and +-2^63 lift exactly from their residues,
    whether the low digits alone hold them (int64) or a higher digit is
    nonzero (Python ints); the tensor is int64 exactly when every |c| < 2^62."""
    edges = [0, 1, -1, 2**46, 2**53 + 3, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**63 + 5]
    edges += [-x for x in edges]
    for p, width in ((5, 1), (7, 14), (13, 91), (13, 2048)):
        qs = moduli(p, width, prime_count(p, width, 2**64))
        for values in (edges, [x for x in edges if abs(x) < 2**62], [3, -2**40, 2**61]):
            residues = [np.array([x % q for x in values], dtype=np.int64) for q in qs]
            lifted = pmatrix._tensor(pmatrix._symmetric_lift(residues, qs))
            assert lifted.tolist() == values
            assert (lifted.dtype == object) == any(abs(x) >= 2**62 for x in values)


def test_numerator_tensor_is_canonical():
    """e is the least exponent over the whole matrix, and the dtype follows
    the largest coefficient, so equal matrices have equal tensors."""
    p = 7
    x = CycElem.make(p, [p] * 12, 3)  # 1/p^2 times (1 + ... + zeta^11)
    M = PMatrix.from_rows(p, [[x, CycElem.zero(p)], [CycElem.one(p), x]])
    assert M.e == 2 and M.num.dtype == np.int64
    assert (M * PMatrix.identity(p, 2)).equal_exact(M)
    assert PMatrix.from_rows(p, [[CycElem.make(p, [p**2] * 12, 2)]]).e == 0
    big = PMatrix.from_rows(p, [[CycElem.make(p, [2**62] + [0] * 11)]])
    assert big.num.dtype == object
    assert PMatrix.from_rows(p, [[CycElem.make(p, [2**62 - 1] + [0] * 11)]]).num.dtype == np.int64
    assert (big * PMatrix.identity(p, 1)).equal_exact(big)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((5, 7)), st.data())
def test_reduce_is_the_entrywise_residue_map(p, data):
    """One Horner evaluation of the tensor against ResidueSpec.reduce of
    every entry, for a small q (int64) and a q past 2^40 (Python ints)."""
    M = data.draw(matrices(p, data.draw(st.integers(1, 4))))
    big_q = {5: 1099511628161, 7: 1099511627873}[p]
    for q in (residue_primes(p, 2)[1], big_q):
        r = ResidueSpec.for_primes(p, q)
        assert M.reduce(r) == tuple(tuple(r.reduce(x) for x in row) for row in M.entries)


def test_trace_sums_the_diagonal():
    p = 5
    xs = [CycElem.make(p, [k - 3, 1, 0, 2, 0, 0, 0, k], k % 3) for k in range(4)]
    M = PMatrix.from_rows(p, [[xs[i] if i == j else xs[3] for j in range(3)] for i in range(3)])
    assert M.trace() == xs[0] + xs[1] + xs[2]
