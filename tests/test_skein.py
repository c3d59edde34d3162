import itertools
import random

import pytest

from oracles import is_unit
from qtop.cyclotomic import CycElem, ResidueSpec, elem_A, eta
from qtop.pmatrix import PMatrix
from qtop.skein import (
    AdmissibilityError,
    admissible,
    colors,
    kappa,
    spectral_color_order,
    quantum_dim,
    quantum_integer,
    s_matrix,
    sixj,
    t_matrix,
    tet,
    theta,
    twist,
)


def hopf(R, a: int, b: int):
    """Bracket of the (a,b)-colored zero-framed Hopf link: (-1)^{a+b}[(a+1)(b+1)]."""
    val = quantum_integer(R, (a + 1) * (b + 1))
    return -val if (a + b) % 2 else val


def test_color_counts():
    for p in (5, 7, 11, 13):
        assert len(colors(p)) == (p - 1) // 2
        assert all(n % 2 == 0 for n in colors(p))
        assert max(colors(p)) == p - 3
        assert sorted(spectral_color_order(p)) == list(colors(p))


def test_quantum_integer_basics():
    assert quantum_integer(5, 0).is_zero()
    assert quantum_integer(5, 1) == CycElem.one(5)


def test_quantum_two_by_polynomial_division_oracle():
    # [2] = (A^4 - A^-4) / (A^2 - A^-2), computed by exact ring division
    A = elem_A(5)
    oracle = (A ** 4 - A ** (-4)).exact_div(A ** 2 - A ** (-2))
    assert quantum_integer(5, 2) == oracle == A ** 2 + A ** (-2)


def test_quantum_p_vanishes():
    # A^{2p} = 1 forces [p] = 0; direct evaluation oracle
    for p in (5, 7):
        assert quantum_integer(p, p).is_zero()


def test_theta_empty_network():
    assert theta(5, 0, 0, 0) == CycElem.one(5)


def test_theta_quantum_dimension():
    assert theta(5, 2, 2, 0) == quantum_integer(5, 3)
    for p in (5, 7):
        for n in colors(p):
            assert theta(p, n, n, 0) == quantum_dim(p, n)


def test_theta_inadmissible_raises():
    with pytest.raises(AdmissibilityError):
        theta(5, 2, 0, 0)
    with pytest.raises(AdmissibilityError):
        tet(5, 2, 2, 2, 2, 2, 1)


def test_theta_invertible_for_admissible_triples():
    for p in (5, 7):
        for a, b, c in itertools.product(colors(p), repeat=3):
            if admissible(p, a, b, c):
                assert is_unit(theta(p, a, b, c))


def test_tet_degenerates_to_theta():
    for p in (5, 7):
        for a, b, e in itertools.product(colors(p), repeat=3):
            if admissible(p, a, b, e):
                assert tet(p, a, b, e, b, a, 0) == theta(p, a, b, e)


def _orthogonality_holds(p, a, b, c, d):
    es = [e for e in colors(p) if admissible(p, a, b, e) and admissible(p, c, d, e)]
    fs = [f for f in colors(p) if admissible(p, b, c, f) and admissible(p, a, d, f)]
    for e in es:
        for e2 in es:
            acc = CycElem.zero(p)
            for f in fs:
                acc = acc + sixj(p, a, b, e, c, d, f) * sixj(p, b, c, f, d, a, e2)
            want = CycElem.one(p) if e == e2 else CycElem.zero(p)
            if acc != want:
                return False
    return True


def test_sixj_orthogonality_random_sample_p7():
    rng = random.Random(7)
    cols = colors(7)
    checked = 0
    while checked < 20:
        a, b, c, d = (rng.choice(cols) for _ in range(4))
        es = [e for e in cols if admissible(7, a, b, e) and admissible(7, c, d, e)]
        if not es:
            continue
        assert _orthogonality_holds(7, a, b, c, d)
        checked += 1


def test_sixj_orthogonality_exhaustive_p5():
    for a, b, c, d in itertools.product(colors(5), repeat=4):
        assert _orthogonality_holds(5, a, b, c, d)


def test_twist_spectrum_matches_quadratic_exponents():
    # diagonal entries are exactly (-A)^{i^2-1}, i = 1 .. (p-1)/2
    for p in (5, 7, 11):
        A = elem_A(p)
        diag = [twist(p, n) for n in spectral_color_order(p)]
        assert diag == [(-A) ** (i * i - 1) for i in range(1, (p - 1) // 2 + 1)]


def test_t_eigenvalue_color_zero_is_one():
    assert twist(5, 0) == CycElem.one(5)


def test_t_matrix_diagonal_p5():
    A = elem_A(5)
    T = t_matrix(5)
    assert T.entries[0][0] == CycElem.one(5)
    assert T.entries[1][1] == (-A) ** 3


def test_t_matrix_has_exact_order_p():
    for p in (5, 7, 11):
        T = t_matrix(p)
        assert (T ** p).equal_exact(PMatrix.identity(p, T.n))
        assert not (T ** 1).equal_exact(PMatrix.identity(p, T.n))


def test_minus_a_has_order_p():
    for p in (5, 7):
        A = elem_A(p)
        assert (-A) ** p == CycElem.one(p)
        assert (-A) ** 1 != CycElem.one(p)


def test_modular_relations():
    for p in (5, 7):
        S, T = s_matrix(p), t_matrix(p)
        eye = PMatrix.identity(p, S.n)
        assert (S * S).proj_equal(eye)
        assert ((S * T) ** 3).proj_equal(S * S)
        assert not S.proj_equal(eye)


def test_s_matrix_is_the_eta_normalized_hopf_pairing():
    # s_matrix is the one-holed-torus S-move at boundary color 0; the
    # closed-torus formula eta * hopf must give it exactly
    for p in (5, 7, 11):
        order = spectral_color_order(p)
        hopf_s = PMatrix.from_rows(p, [[eta(p) * hopf(p, a, b) for b in order] for a in order])
        assert s_matrix(p) == hopf_s
    r = ResidueSpec.for_primes(7, 29)
    order = spectral_color_order(7)
    assert s_matrix(r).tolist() == [[(eta(r) * hopf(r, a, b)).v for b in order] for a in order]


def test_hopf_twist_expansion_identity():
    # Kirby-style expansion of the clasp into channel twists: the identity
    # underlying the one-holed torus S-move
    for p in (5, 7):
        for y, a in itertools.product(colors(p), repeat=2):
            acc = CycElem.zero(p)
            for e in colors(p):
                if admissible(p, y, a, e):
                    acc = acc + twist(p, e) * quantum_dim(p, e)
            lhs = acc.exact_div(twist(p, y) * twist(p, a))
            assert lhs == hopf(p, y, a)


def test_kappa_is_a_unit():
    for p in (5, 7):
        assert is_unit(kappa(p))


def test_surgery_anchor_values():
    # RT(S^3) = eta and RT(S^1 x S^2) = 1 from the surgery sum
    for p in (5, 7):
        g1 = CycElem.zero(p)
        g0 = CycElem.zero(p)
        for n in colors(p):
            g1 = g1 + quantum_dim(p, n) ** 2 * twist(p, n)
            g0 = g0 + quantum_dim(p, n) ** 2
        assert eta(p) ** 2 * g1 * kappa(p).inv() == eta(p)
        assert eta(p) ** 2 * g0 == CycElem.one(p)
