import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import CURVE_CLASSES, exponent_sums, symplectic_form
from qtop.mcg import (
    GENUS_CURVES,
    SURFACES,
    TwistWord,
    WordError,
    _PI1_TWISTS,
    _compose_auto,
    _twist_auto,
    apply_auto,
    empty_word,
    free_inverse,
    free_reduce,
    h1_action,
    is_torelli,
    letter,
    parse_word,
    pi1_action,
    random_word,
    word_in_subgroup,
    word_product,
)


# -- words and parsing --------------------------------------------------------


def letters_strategy(genus):
    curve = st.sampled_from(GENUS_CURVES[genus])
    exp = st.integers(-4, 4).filter(lambda e: e != 0)
    return st.lists(st.tuples(curve, exp), max_size=8)


@settings(max_examples=60, deadline=None)
@given(letters_strategy(2))
def test_print_parse_roundtrip(letters):
    w = TwistWord(2)
    for c, e in letters:
        w = w * letter(2, c, e)
    assert parse_word(2, str(w)) == w


def test_parse_commutators_and_powers():
    w = parse_word(2, "c1^3 * [c2, s]^2")
    expect = (letter(2, "c1", 3)
              * (letter(2, "c2").commutator(letter(2, "s"))) ** 2)
    assert w == expect
    assert parse_word(2, str(w)) == w


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word(2, "c9")
    with pytest.raises(WordError):
        parse_word(1, "c1")
    with pytest.raises(WordError):
        parse_word(2, "c1^")
    with pytest.raises(WordError):
        parse_word(2, "[c1, ")
    with pytest.raises(WordError):
        letter(2, "c1", 0)


def test_word_algebra():
    w = parse_word(2, "c1 * c2")
    assert (w * w.inverse()).letters == ()
    assert (w ** 0).letters == ()
    assert w ** -2 == (w.inverse()) ** 2


def test_powers_equal_the_chain_of_products():
    for text in ("c1", "c1*c2", "c1*c2^-1*c1", "[c1, c3]*s^2"):
        w = parse_word(2, text)
        for k in range(-5, 6):
            base = w if k > 0 else w.inverse()
            assert w ** k == word_product(2, [base] * abs(k)), (text, k)
    w = parse_word(2, "c1*c2^-1*c1")
    assert w ** 8000 == word_product(2, [w] * 8000)


def test_a_huge_exponent_parses_to_one_letter():
    """Square-and-multiply: 40 merges, not 10^12."""
    assert parse_word(2, "c1^1000000000000").letters == (("c1", 10**12),)
    assert parse_word(2, "(c3^-2)^1000000000000").letters == (("c3", -2 * 10**12),)


# -- homology action -----------------------------------------------------------


def _transvection(genus, curve, exp):
    """Action of t_curve^exp on H_1 (a transvection), rows first: column j
    is e_j + exp <e_j, gamma> gamma, gamma the curve's class."""
    n = 2 * genus
    J = symplectic_form(genus)
    gamma = CURVE_CLASSES[genus][curve]
    cols = []
    for j in range(n):
        v = [1 if i == j else 0 for i in range(n)]
        pairing = sum(v[i] * J[i][k] * gamma[k] for i in range(n) for k in range(n))
        cols.append([v[i] + exp * pairing * gamma[i] for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def is_symplectic(M, genus):
    J = symplectic_form(genus)
    n = 2 * genus
    MT = [[M[j][i] for j in range(n)] for i in range(n)]
    return _mat_mul(MT, _mat_mul(J, [list(r) for r in M])) == J


def transvection_product(word):
    """The oracle for h1_action: the product of the letters' full
    transvection matrices."""
    n = 2 * word.genus
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for curve, exp in word.letters:
        M = _mat_mul(M, _transvection(word.genus, curve, exp))
    return tuple(tuple(r) for r in M)


@pytest.mark.parametrize("genus", [1, 2])
def test_h1_action_equals_the_transvection_product(genus):
    rng = random.Random(genus)
    for _ in range(300):
        letters = [
            (rng.choice(GENUS_CURVES[genus]), rng.choice((1, -1)) * rng.randint(1, rng.choice((3, 10 ** 12))))
            for _ in range(rng.randint(0, 10))
        ]
        word = TwistWord(genus, tuple(letters))
        M = h1_action(word)
        assert M == transvection_product(word)
        assert is_symplectic(M, genus)



def test_empty_word_is_identity():
    assert h1_action(empty_word(1)) == ((1, 0), (0, 1))


def test_genus1_transvection_matrix():
    assert h1_action(letter(1, "a")) == ((1, 1), (0, 1))


def test_separating_twist_is_homologically_trivial():
    M = h1_action(letter(2, "s", 3))
    assert M == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))


@settings(max_examples=40, deadline=None)
@given(letters_strategy(2), letters_strategy(2))
def test_h1_is_a_homomorphism_into_symplectic_group(l1, l2):
    w1, w2 = TwistWord(2), TwistWord(2)
    for c, e in l1:
        w1 = w1 * letter(2, c, e)
    for c, e in l2:
        w2 = w2 * letter(2, c, e)
    A, B, AB = h1_action(w1), h1_action(w2), h1_action(w1 * w2)
    n = 4
    prod = tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert prod == AB
    assert is_symplectic(A, 2)


def test_torelli_membership():
    assert is_torelli(letter(2, "s"))
    assert not is_torelli(letter(2, "c1"))
    comm = letter(2, "c1").commutator(letter(2, "c3"))
    # disjoint curves: transvections commute, so the commutator is trivial on H1
    assert is_torelli(comm)


def test_h1_braid_relations():
    for x, y in (("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5")):
        lhs = h1_action(letter(2, x) * letter(2, y) * letter(2, x))
        rhs = h1_action(letter(2, y) * letter(2, x) * letter(2, y))
        assert lhs == rhs


# -- surface group action --------------------------------------------------------


def _cyclic(w):
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = free_reduce(w[1:-1])
    return w


def _conjugate_words(w, t):
    cw = _cyclic(w)
    for tt in (_cyclic(t), _cyclic(free_inverse(t))):
        if len(cw) == len(tt):
            for k in range(len(cw) or 1):
                if cw[k:] + cw[:k] == tt:
                    return True
    return False


def test_pi1_twists_preserve_the_relator():
    for genus, curves in GENUS_CURVES.items():
        relator = SURFACES[genus][0]
        for c in curves:
            for e in (1, -1, 2):
                phi = pi1_action(letter(genus, c, e))
                assert _conjugate_words(apply_auto(phi, relator), relator), (c, e)


def test_pi1_random_words_preserve_the_relator():
    for genus in GENUS_CURVES:
        relator = SURFACES[genus][0]
        for seed in range(6):
            phi = pi1_action(random_word(genus, 8, seed))
            assert _conjugate_words(apply_auto(phi, relator), relator)


def test_pi1_abelianization_matches_h1():
    def abelianize(phi):
        M = [[0] * len(phi) for _ in phi]
        for g, w in phi.items():
            for x in w:
                M[abs(x) - 1][g - 1] += 1 if x > 0 else -1
        return tuple(tuple(r) for r in M)

    for genus, curves in GENUS_CURVES.items():
        for c in curves:
            for e in (1, -1, 3):
                word = letter(genus, c, e)
                assert abelianize(pi1_action(word)) == h1_action(word), (c, e)
    for seed in range(6):
        word = random_word(1, 8, seed)
        assert abelianize(pi1_action(word)) == h1_action(word)


def _curve_generators(c):
    """The identity on the generators 1..2g of the surface of curve c."""
    genus = next(g for g, curves in GENUS_CURVES.items() if c in curves)
    return {g: (g,) for g in range(1, 2 * genus + 1)}


def test_twist_table_inverse_powers_compose_to_the_identity():
    # the inverse of g -> L g R is g -> L^-1 g R^-1 only while the twist
    # fixes every letter of L and R
    for c, moved in _PI1_TWISTS.items():
        identity = _curve_generators(c)
        for left, right in moved.values():
            for x in left + right:
                assert _twist_auto(c, 1)[abs(x)] == (abs(x),), (c, x)
        for e in (1, -1, 2, -2, 3, -3):
            assert _compose_auto(_twist_auto(c, e), _twist_auto(c, -e)) == identity, (c, e)
            assert _compose_auto(_twist_auto(c, -e), _twist_auto(c, e)) == identity, (c, e)


def test_closed_form_twist_powers_equal_the_composed_one_step_map():
    for c, moved in _PI1_TWISTS.items():
        identity = _curve_generators(c)
        for sign in (1, -1):
            step = dict(identity)
            for g, (left, right) in moved.items():
                if sign < 0:
                    left, right = free_inverse(left), free_inverse(right)
                step[g] = free_reduce(left + (g,) + right)
            composed = identity
            for k in range(9):
                assert _twist_auto(c, sign * k) == composed, (c, sign * k)
                composed = _compose_auto(step, composed)


def test_cached_twist_automorphisms_are_read_only():
    with pytest.raises(TypeError):
        _twist_auto("c3", 1)[2] = (2,)


# -- constructive subgroup words ---------------------------------------------------


def test_word_in_subgroup_base_case():
    cw = word_in_subgroup(3, 1, 0)
    assert cw.word == letter(2, "s", 3)
    assert is_torelli(cw.word)
    assert cw.certificate == "s^3"


def test_word_in_subgroup_exponent_sums_multiples_of_n():
    for seed in (1, 2, 3):
        for n in (2, 3, 5):
            cw = word_in_subgroup(n, 1, seed)
            assert all(v % n == 0 for v in exponent_sums(cw.word).values())
            assert is_torelli(cw.word)


def test_word_in_subgroup_depth_two():
    cw = word_in_subgroup(1, 2, 7)
    assert is_torelli(cw.word)
    assert cw.certificate.startswith("[")


def test_word_in_subgroup_outputs_always_torelli():
    for seed in range(5):
        for k in (1, 2, 3):
            assert is_torelli(word_in_subgroup(2, k, seed).word)


def test_word_in_subgroup_deterministic():
    assert word_in_subgroup(3, 2, 11).word == word_in_subgroup(3, 2, 11).word


@settings(max_examples=60, deadline=None)
@given(st.lists(letters_strategy(2), max_size=6))
def test_word_product_is_the_chain_of_products(parts):
    words = [TwistWord(2, tuple(letters)) for letters in parts]
    chained = empty_word(2)
    for w in words:
        chained = chained * w
    assert word_product(2, words) == chained
