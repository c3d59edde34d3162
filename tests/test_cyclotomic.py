import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fq_oracles import fq_rref as list_fq_rref
from oracles import cyc_from_json, in_half_conductor_subring, is_unit
from qtop import linalg
from qtop.cyclotomic import (
    CycElem,
    CycIdeal,
    InexactDivisionError,
    NotAUnitError,
    ResidueSpec,
    RingUsageError,
    elem_A,
    elem_i,
    elem_u,
    eta,
    gauss_sqrt_minus_p,
    is_prime,
    residue_primes,
    ring,
)


def rand_elem(p, rng, size=4):
    deg = ring(p).degree
    coeffs = [rng.randint(-size, size) for _ in range(deg)]
    return CycElem.make(p, coeffs, rng.randint(0, 1))


coeff_vectors = st.lists(st.integers(-9, 9), min_size=8, max_size=8)


@settings(max_examples=60, deadline=None)
@given(coeff_vectors, coeff_vectors, coeff_vectors)
def test_ring_axioms_hold_exactly(u, v, w):
    p = 5
    x, y, z = (CycElem.make(p, c) for c in (u, v, w))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x


def test_distinguished_element_identities():
    for p in (5, 7, 11, 13):
        A, u, i = elem_A(p), elem_u(p), elem_i(p)
        assert A ** p == CycElem.from_int(p, -1)
        assert u ** p == CycElem.one(p)
        assert u != CycElem.one(p)
        assert i * i == CycElem.from_int(p, -1)
        assert len(A.coeffs) == ring(p).degree == 2 * (p - 1)


def test_a_times_a_is_u():
    assert elem_A(5) * elem_A(5) == elem_u(5)


def test_monomial_table_equals_powers_of_zeta():
    """The table ring(p).monomial, built by reduce_poly, against the
    general product zeta^(E - 1) * zeta for every E in [0, 4p)."""
    for p in (5, 7, 11):
        zeta = CycElem.make(p, [0, 1])
        power = CycElem.one(p)
        for E in range(4 * p):
            assert ring(p).monomial[E] == power.coeffs
            assert CycElem.root_power(p, E) == power
            power = power * zeta
        assert power == CycElem.one(p)


def test_pow_equals_repeated_product():
    for p in (5, 7):
        x = CycElem.make(p, [1, 1] + [0] * (ring(p).degree - 2), 1)  # (1 + zeta)/p, a unit
        power = CycElem.one(p)
        for n in range(10):
            assert x ** n == power
            assert x ** -n == power.inv()
            power = power * x


def test_additive_identity():
    x = CycElem.make(5, [1, 2, 0, -1, 0, 0, 3, 0], 1)
    assert x + CycElem.zero(5) == x


def test_invalid_prime_rejected():
    for bad in (4, 3, 9, 1):
        with pytest.raises(RingUsageError):
            ring(bad)


def test_mixed_prime_arithmetic_rejected():
    with pytest.raises(RingUsageError):
        elem_A(5) * elem_A(7)


def test_gauss_sum_squares_to_minus_p():
    for p in (5, 7, 11, 13):
        g = gauss_sqrt_minus_p(p)
        assert g * g == CycElem.from_int(p, -p)


def test_bare_gauss_sum_sign_depends_on_p_mod_4():
    # direct ring expansion oracle: sum_k u^{k^2} squares to +p iff p = 1 mod 4
    for p, sign in ((5, 1), (7, -1), (13, 1), (11, -1)):
        u = elem_u(p)
        s = CycElem.zero(p)
        for k in range(p):
            s = s + u ** (k * k % p)
        assert s * s == CycElem.from_int(p, sign * p)


def test_unit_difference_product_is_p():
    # p = prod_{i=1}^{p-1} (1 - u^i)
    for p in (5, 7):
        u = elem_u(p)
        prod = CycElem.one(p)
        for i in range(1, p):
            prod = prod * (CycElem.one(p) - u ** i)
        assert prod == CycElem.from_int(p, p)


def test_eta_is_a_unit_with_computable_inverse():
    for p in (5, 7):
        e = eta(p)
        assert is_unit(e)
        assert e * e.inv() == CycElem.one(p)


def test_eta_times_sqrt_minus_p():
    for p in (5, 7):
        A = elem_A(p)
        assert eta(p) * gauss_sqrt_minus_p(p) == A ** 2 - A ** (-2)


def test_non_unit_inversion_raises():
    with pytest.raises(NotAUnitError):
        CycElem.from_int(5, 2).inv()
    with pytest.raises(NotAUnitError):
        CycElem.zero(5).inv()


def test_inexact_division_raises():
    with pytest.raises(InexactDivisionError):
        CycElem.one(5).exact_div(CycElem.from_int(5, 3))


def test_p_is_invertible():
    x = CycElem.from_int(5, 5)
    assert is_unit(x)
    assert x * x.inv() == CycElem.one(5)


# -- residues ---------------------------------------------------------------


def test_residue_primes_list():
    assert residue_primes(5) == [41, 61, 101, 181, 241]


def test_is_prime_equals_sympy():
    """Deterministic Miller-Rabin against sympy.isprime: every n below
    3 000, random n up to 2^64 and up to 3.3 10^24, and strong
    pseudoprimes to the bases 2, 3, 5 and 7 (3 215 031 751), to every
    prime base up to 23 (3 825 123 056 546 413 051) and up to 37
    (318 665 857 834 031 151 167 461); larger n are refused."""
    rng = random.Random(7)
    bound = 3317044064679887385961981
    ns = list(range(3000)) + [rng.randrange(2**64) for _ in range(500)]
    ns += [rng.randrange(bound) for _ in range(500)] + [rng.randrange(2**40) | 1 for _ in range(500)]
    pseudoprimes = [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in ns + pseudoprimes + [bound - 1, 2**61 - 1, 2**64 - 59]:
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(map(is_prime, pseudoprimes))
    for n in (bound, 10**30 + 57):
        with pytest.raises(RingUsageError):
            is_prime(n)


def test_residue_spec_rejects_bad_primes():
    with pytest.raises(RingUsageError):
        ResidueSpec.for_primes(5, 43)  # not 1 mod 20
    with pytest.raises(RingUsageError):
        ResidueSpec.for_primes(5, 21)  # not prime


def test_root_has_exact_order_m():
    for p, q in ((5, 41), (5, 61), (7, 29)):
        r = ResidueSpec.for_primes(p, q)
        m = 4 * p
        assert pow(r.root, m, q) == 1
        for ell in (2, p):
            assert pow(r.root, m // ell, q) != 1


def test_smallest_root_matches_scan():
    # for_primes finds the root without a scan; compare with one
    for p in (5, 7, 11, 13):
        m = 4 * p
        for q in range(m + 1, 3000, m):
            if not is_prime(q):
                continue
            scan = next(
                x for x in range(2, q)
                if pow(x, m, q) == 1 and pow(x, m // 2, q) != 1 and pow(x, m // p, q) != 1
            )
            assert ResidueSpec.for_primes(p, q).root == scan, (p, q)


def test_residue_preserves_one():
    r = ResidueSpec.for_primes(5, 41)
    assert r.reduce(CycElem.one(5)) == 1


def test_residue_is_ring_homomorphism():
    rng = random.Random(0)
    r = ResidueSpec.for_primes(5, 41)
    for _ in range(100):
        x, y = rand_elem(5, rng), rand_elem(5, rng)
        assert r.reduce(x * y) == r.reduce(x) * r.reduce(y) % 41
        assert r.reduce(x + y) == (r.reduce(x) + r.reduce(y)) % 41


def test_root_of_unity_differences_are_units_mod_q():
    for p, qs in ((5, (41, 61, 101)), (7, (29,))):
        u = elem_u(p)
        for q in qs:
            r = ResidueSpec.for_primes(p, q)
            for i in range(p):
                for j in range(i + 1, p):
                    assert r.reduce(u ** i - u ** j) != 0


# -- ideals -------------------------------------------------------------------


def test_full_and_zero_ideals():
    assert CycIdeal.from_generators([CycElem.one(5)]).index() == 1
    assert CycIdeal.from_generators([CycElem.one(5)]).is_full()
    z = CycIdeal.from_generators([CycElem.zero(5)])
    assert z.is_zero
    assert z.contains(CycElem.zero(5))
    assert not z.contains(CycElem.one(5))


def test_u_minus_one_saturates_to_full():
    # unsaturated lattice has index 5^k (norm of (u-1) is a power of 5)
    p = 5
    u = elem_u(p)
    g = u - CycElem.one(p)
    rows = []
    for k in range(ring(p).degree):
        rows.append(list((g * CycElem.root_power(p, k)).coeffs))
    basis = linalg.hnf(rows)
    index = 1
    for r in basis:
        index *= next(c for c in r if c)
    assert index > 1 and 5 ** 10 % index == 0  # a nontrivial power of 5
    assert CycIdeal.from_generators([g]).is_full()


def saturate_by_elimination(basis, p, dim):
    """The oracle for _saturate_at_p: while some combination y of the basis
    rows is 0 mod p (found by eliminating [basis mod p | I] over F_p), add
    y / p and take the HNF again."""
    while basis:
        n = len(basis)
        aug = [[c % p for c in row] + [int(k == i) for k in range(n)]
               for i, row in enumerate(basis)]
        combo = next((r[dim:] for r in list_fq_rref(aug, p) if not any(r[:dim])), None)
        if combo is None:
            break
        y = [sum(c * row[j] for c, row in zip(combo, basis)) for j in range(dim)]
        basis = linalg.hnf(basis + [[v // p for v in y]])
    return basis


@pytest.mark.parametrize("p", [5, 7, 11])
def test_saturation_in_one_hnf_matches_elimination(p):
    """from_generators saturates with one HNF by the prime-to-p index; its
    rows equal the elimination loop's on random one- and two-generator
    ideals, some multiplied by p^k or by (u - 1)^k, whose norm is a p-power."""
    rng = random.Random(p)
    deg, u = ring(p).degree, elem_u(p)
    for trial in range(102):
        gens = [rand_elem(p, rng) for _ in range(1 + trial % 2)]
        if trial % 3 == 1:
            gens[0] = gens[0] * CycElem.from_int(p, p ** rng.randint(1, 2))
        elif trial % 3 == 2:
            gens[0] = gens[0] * (u - 1) ** rng.randint(1, 3)
        rows = [list((CycElem(p, g.coeffs, 0) * CycElem.root_power(p, k)).coeffs)
                for g in gens for k in range(deg)]
        expected = saturate_by_elimination(linalg.hnf(rows), p, deg)
        assert CycIdeal.from_generators(gens).rows == tuple(map(tuple, expected)), trial


def test_ideal_contains_zero_and_reflexive_leq():
    rng = random.Random(1)
    for _ in range(5):
        I = CycIdeal.from_generators([rand_elem(5, rng)])
        assert I.contains(CycElem.zero(5))
        assert I.leq(I)


def test_ideal_regeneration_is_idempotent():
    rng = random.Random(2)
    I = CycIdeal.from_generators([rand_elem(5, rng), rand_elem(5, rng)])
    regenerated = CycIdeal.from_generators(
        [CycElem(5, row, 0) for row in I.rows]
    )
    assert regenerated == I


def test_ideal_generated_by_p_is_full():
    assert CycIdeal.from_generators([CycElem.from_int(5, 5)]).is_full()


def test_eta_generates_full_ideal():
    assert CycIdeal.from_generators([eta(5)]).is_full()


def test_containment_is_obstruction_partial_order():
    u = elem_u(5)
    small = CycIdeal.from_generators([(u - 1) * CycElem.from_int(5, 3)])
    big = CycIdeal.from_generators([u - 1])
    assert small.leq(big)
    assert not big.leq(small) or big == small


# -- subring membership -------------------------------------------------------


def test_half_conductor_subring_membership():
    assert in_half_conductor_subring(elem_A(5))
    assert in_half_conductor_subring(elem_u(5))
    assert not in_half_conductor_subring(elem_i(5))
    assert not in_half_conductor_subring(gauss_sqrt_minus_p(5))  # needs i at p=5
    assert in_half_conductor_subring(gauss_sqrt_minus_p(7))


def test_serialization_roundtrip():
    rng = random.Random(3)
    x = rand_elem(5, rng)
    assert cyc_from_json(x.to_json()) == x
