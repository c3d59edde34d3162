"""The packed exact matrix kernel against the schoolbook product and sympy."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qtop.cyclotomic import CycElem, RingUsageError, ring
from qtop.pmatrix import PMatrix


def schoolbook_mul(A: PMatrix, B: PMatrix) -> PMatrix:
    """Entry by entry in CycElem arithmetic: the oracle for PMatrix.__mul__."""
    n, a, b = A.n, A.entries, B.entries
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = CycElem.zero(A.p)
            for k in range(n):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        rows.append(row)
    return PMatrix.from_rows(A.p, rows)


def column(M: PMatrix, j: int) -> list[CycElem]:
    return [row[j] for row in M.entries]


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


@st.composite
def matrix_pairs(draw):
    p = draw(st.sampled_from((5, 7)))
    n = draw(st.integers(1, 4))
    return draw(matrices(p, n)), draw(matrices(p, n))


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_packed_product_equals_schoolbook(pair):
    A, B = pair
    AB = A * B
    assert AB.entries == schoolbook_mul(A, B).entries
    for j in range(A.n):
        assert A.apply(column(B, j)) == column(AB, j)


@st.composite
def root_diagonals(draw, p: int, n: int):
    """diag(zeta^E_1, ..., zeta^E_n), any exponents in [0, 4p)."""
    return PMatrix.diagonal(p, [CycElem.root_power(p, draw(st.integers(0, 4 * p - 1))) for _ in range(n)])


@st.composite
def products_with_root_diagonals(draw):
    p = draw(st.sampled_from((5, 7)))
    n = draw(st.integers(1, 4))
    M = draw(matrices(p, n))
    return M, draw(root_diagonals(p, n)), draw(root_diagonals(p, n))


@settings(max_examples=40, deadline=None)
@given(products_with_root_diagonals())
def test_root_diagonal_products_equal_schoolbook(ops):
    """A root-of-unity diagonal multiplies by rotation on either side, and
    by another one; apply by it rotates the vector's entries."""
    M, D, D2 = ops
    assert D._root_diagonal is not None
    for A, B in ((D, M), (M, D), (D, D2), (D, M * D2)):
        assert (A * B).entries == schoolbook_mul(A, B).entries
    for j in range(M.n):
        assert D.apply(column(M, j)) == column(schoolbook_mul(D, M), j)


def test_non_root_diagonals_take_the_packed_product():
    """2, zeta/p, 0 and an off-diagonal entry each rule the rotation out;
    the products still equal the schoolbook product."""
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
        assert N._root_diagonal is None
        for A, B in ((N, M), (M, N)):
            assert (A * B).entries == schoolbook_mul(A, B).entries
        assert N.apply(column(M, 0)) == column(schoolbook_mul(N, M), 0)


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
                    assert A.apply(column(B, 0)) == column(schoolbook_mul(A, B), 0)


def test_apply_of_zero_and_identity():
    p, n = 7, 3
    A = PMatrix.from_rows(
        p, [[CycElem.make(p, [i + j - k for k in range(12)], j) for j in range(n)] for i in range(n)]
    )
    zero = [CycElem.zero(p)] * n
    assert A.apply(zero) == zero
    assert (A * PMatrix.identity(p, n)).entries == A.entries
    assert (PMatrix.identity(p, n) * A).entries == A.entries
    for j in range(n):
        e_j = [CycElem.one(p) if i == j else CycElem.zero(p) for i in range(n)]
        assert A.apply(e_j) == column(A, j)



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
@given(st.sampled_from((5, 7)), st.data())
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
            # the packed product's numerator over p^(ea + eb) is integral
            assert all(c.q == 1 for c in got.all_coeffs())
