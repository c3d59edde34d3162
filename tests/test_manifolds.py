import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import abelian_genus1_presentation
from qtop import manifolds
from qtop.cyclotomic import CycElem, ResidueSpec, elem_A, elem_u, eta
from qtop.groups import FiniteGroupTable, GroupTableError, builtin_group
from qtop.manifolds import (
    BoundedHeegaard,
    BudgetExceededError,
    ConnectedSum,
    DescError,
    Double,
    DwTheory,
    GroupPresentation,
    HeegaardGluing,
    LensSurgery,
    MappingTorus,
    NotQHSError,
    S3,
    compressed_walks,
    desc_from_json,
    desc_to_json,
    dw_invariant,
    dw_invariant_tqft,
    format_homology,
    hom_count,
    homology_h1,
    homology_of,
    h1_order,
    murakami_check,
    murakami_residue,
    parse_desc,
    presentation,
    rt_closed,
    surviving_indices,
)
from qtop.mcg import (
    GENUS_CURVES,
    SURFACES,
    empty_word,
    h1_action,
    letter,
    parse_word,
    random_word,
    word_in_subgroup,
    word_product,
)
from qtop.rep import rep_dim, rho, rho_apply, vacuum_index, vacuum_vector
from qtop.skein import kappa

GROUPS = [builtin_group("Z2"), builtin_group("Z3"), builtin_group("S3"), builtin_group("Q8")]


def abs2(x):
    return x * x.conjugate()


# -- groups ---------------------------------------------------------------------


def test_builtin_group_orders_and_exponents():
    assert builtin_group("Z2").order == 2 and builtin_group("Z2").exponent == 2
    assert builtin_group("S3").order == 6 and builtin_group("S3").exponent == 6
    assert builtin_group("Q8").order == 8 and builtin_group("Q8").exponent == 4
    assert builtin_group("Z/6").order == 6


def test_group_csv_roundtrip():
    G = builtin_group("S3")
    again = FiniteGroupTable.from_csv("S3", G.to_csv())
    assert np.array_equal(again.table, G.table)


def test_bad_table_rejected():
    with pytest.raises(GroupTableError):
        FiniteGroupTable.from_table("bad", [[0, 1], [0, 1]])


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1]], "table is not square"),
        ([[0, 1, 2], [1, 2, 0]], "table is not square"),
        ([[0, 1], [1, 2]], "table entries out of range"),
        ([[0, 1], [1, -1]], "table entries out of range"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "element 1 has no inverse"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], "table is not associative"),
    ],
)
def test_malformed_tables_raise_group_table_error(table, message):
    with pytest.raises(GroupTableError, match=message):
        FiniteGroupTable.from_table("bad", table)


def test_group_tables_are_read_only():
    G = builtin_group("Z/5")
    for arr in (G.table, G.inverse):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_permutation_closure():
    G = FiniteGroupTable.from_permutations("A4-ish", [(1, 2, 0, 3), (0, 2, 3, 1)])
    assert G.order in (12, 24)  # closure of two even permutations of S4


# -- presentations and homology ----------------------------------------------------


def test_presentation_parse_and_print():
    pres = GroupPresentation.parse("gens: a b; rel: a b a B A")
    assert pres.num_generators == 2
    assert pres.relators == ((1, 2, 1, -2, -1),)
    assert GroupPresentation.parse(str(pres)) == pres


def test_single_relator_x():
    assert homology_h1(GroupPresentation(1, ((1,),))) == (0, ())


def test_lens_homology():
    assert homology_of(LensSurgery(5)) == (0, (5,))
    assert format_homology(*homology_of(LensSurgery(5))) == "Z/5"
    # read from the coefficient; the presentation <x | x^b> is the oracle
    for b in range(-9, 10):
        assert homology_of(LensSurgery(b)) == homology_h1(presentation(LensSurgery(b))), b
    assert format_homology(*homology_of(LensSurgery(10**12))) == "Z/1000000000000"


def test_three_torus_homology():
    rank, torsion = homology_of(MappingTorus(1, empty_word(1)))
    assert (rank, torsion) == (3, ())
    assert format_homology(rank, torsion) == "Z^3"


def test_heegaard_words_for_standard_spaces():
    assert homology_of(HeegaardGluing(1, empty_word(1))) == (1, ())   # S1 x S2
    assert homology_of(HeegaardGluing(1, parse_word(1, "a*b*a"))) == (0, ())  # S3
    assert homology_of(HeegaardGluing(1, parse_word(1, "b^4"))) == (0, (4,))
    assert homology_of(HeegaardGluing(2, parse_word(2, "c1^4 * c4*c5*c4"))) == (0, (4,))


def test_huge_twist_power_homology():
    # t^k adds k M ab(L R) to a column of the integer action, for any k
    desc = HeegaardGluing(2, parse_word(2, "c1^100000*c3"))
    assert format_homology(*homology_of(desc)) == "Z/100000"


def test_homology_of_equals_the_presentation_route():
    """H_1 from the integer relation matrices equals H_1 of the spelled-out
    surface-group presentation, for every description kind."""
    rng = random.Random(40)

    def word(genus):
        return word_product(genus, [
            letter(genus, rng.choice(GENUS_CURVES[genus]), rng.choice((1, -1)) * rng.randint(1, 50))
            for _ in range(rng.randint(0, 4))
        ])

    def lens():
        return LensSurgery(rng.randint(-9, 9))

    for _ in range(25):
        descs = [
            HeegaardGluing(1, word(1)),
            MappingTorus(1, word(1)),
            HeegaardGluing(2, word(2)),
            MappingTorus(2, word(2)),
            ConnectedSum(lens(), lens()),
            ConnectedSum(lens(), HeegaardGluing(2, word(2))),
            ConnectedSum(MappingTorus(2, word(2)), lens()),
        ]
        for boundary_genus in (0, 1):
            half = BoundedHeegaard(2, boundary_genus, word(2))
            descs += [half, Double(half)]
        for desc in descs:
            assert homology_of(desc) == homology_h1(presentation(desc)), desc


def test_homology_huge_exponents(monkeypatch):
    """Exponents stay integers: no presentation is built, so 10^12 costs
    what 1 does."""
    def refuse(desc):
        raise AssertionError(f"presentation({desc}) called")

    monkeypatch.setattr(manifolds, "presentation", refuse)
    for text, expect in (
        ("heegaard:1:b^1000000000000", "Z/1000000000000"),
        ("heegaard:2:c1^1000000000000*c3", "Z/1000000000000"),
        ("mtorus:2:c1^1000000000000*c3", "Z^3 + Z/1000000000000"),
        ("bounded:2:0:c1^1000000000000", "Z + Z/1000000000000"),
        ("sum:(lens:1000000000000),(lens:2)", "Z/2 + Z/1000000000000"),
        ("mtorus:1:a^1000000000000*b", "Z + Z/1000000000000"),
    ):
        assert format_homology(*homology_of(parse_desc(text))) == expect, text


def test_connected_sum_homology():
    rank, torsion = homology_of(ConnectedSum(LensSurgery(3), LensSurgery(5)))
    assert rank == 0 and sorted(torsion) == [15] or sorted(torsion) == [3, 5]


def test_double_presentations():
    # the untwisted compression pieces double to connected sums of S^1 x S^2:
    # both handles compressed -> #^4, one handle -> #^3
    cap = BoundedHeegaard(2, 0, empty_word(2))
    assert homology_of(Double(cap)) == (4, ())
    solid = BoundedHeegaard(2, 1, empty_word(2))
    assert homology_of(Double(solid)) == (3, ())


def test_h1_order_gate():
    assert h1_order(LensSurgery(7)) == 7
    with pytest.raises(NotQHSError):
        h1_order(MappingTorus(1, empty_word(1)))


def test_desc_parsing_roundtrip():
    for text in ("lens:5", "s3", "heegaard:1:b^3", "mtorus:2:c1 * s",
                 "bounded:2:0:c3^2", "sum:(lens:3),(lens:5)", "double:(bounded:2:1:c1)"):
        desc = parse_desc(text)
        assert desc_from_json(json.loads(json.dumps(desc_to_json(desc)))) == desc


@pytest.mark.parametrize(
    "text", ["bounded:2", "heegaard:2", "lens:abc", "heegaard:x:c1", "mtorus", "bounded:2:z:c1"]
)
def test_malformed_desc_fields_raise_desc_error(text):
    with pytest.raises(DescError, match=re.escape(repr(text))):
        parse_desc(text)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "lens"},
        {"kind": "lens", "b": None},
        {"kind": "lens", "b": 2.5},
        {"kind": "lens", "b": True},
        {"kind": "bounded", "genus": 2, "word": "c1"},
        {"kind": "heegaard", "genus": "two", "word": "c1"},
        {"kind": "mappingTorus", "genus": 2},
        {"kind": "heegaard", "genus": 2, "word": 5},
        {"kind": "bounded", "genus": 2, "boundaryGenus": 1.5j, "word": "c1"},
        {"kind": "sum", "left": {"kind": "lens", "b": 3}},
        {"kind": "double", "half": []},
        [{"kind": "lens", "b": 5}],
        "lens:5",
        None,
    ],
)
def test_malformed_desc_documents_raise_desc_error(doc):
    with pytest.raises(DescError):
        desc_from_json(doc)


def test_huge_twist_power_is_the_identity_in_rt():
    """t^p = 1 exactly and 10^12 = 0 mod 5, so c1^(10^12) drops out."""
    big, plain = (parse_desc(f"heegaard:2:{w}") for w in ("c1^1000000000000*c3", "c3"))
    assert rt_closed(big, 5) == rt_closed(plain, 5)


def test_desc_errors():
    with pytest.raises(DescError):
        parse_desc("banana:3")
    with pytest.raises(DescError):
        BoundedHeegaard(2, 2, empty_word(2))
    with pytest.raises(DescError):
        HeegaardGluing(1, empty_word(2))


# -- Dijkgraaf-Witten ----------------------------------------------------------------


def test_hom_count_budget_error():
    pres = presentation(MappingTorus(2, random_word(2, 4, 0)))
    with pytest.raises(BudgetExceededError):
        hom_count(pres, builtin_group("S3"), budget=10)


def dfs_hom_count(pres: GroupPresentation, G: FiniteGroupTable) -> tuple[int, int]:
    """Backtracking with relator pruning, one G.mul at a time: the oracle for
    hom_count.  Returns (homomorphisms, search nodes)."""
    n = pres.num_generators
    by_stage = [[] for _ in range(n + 1)]
    for rel in pres.relators:
        by_stage[max((abs(x) for x in rel), default=0)].append(rel)
    count = nodes = 0
    assign = [G.identity] * (n + 1)

    def evaluate(rel) -> int:
        acc = G.identity
        for x in rel:
            g = assign[abs(x)]
            acc = G.mul(acc, g if x > 0 else G.inv(g))
        return acc

    def backtrack(stage: int):
        nonlocal count, nodes
        nodes += 1
        if stage > n:
            count += 1
            return
        for g in range(G.order):
            assign[stage] = g
            if all(evaluate(rel) == G.identity for rel in by_stage[stage]):
                backtrack(stage + 1)

    backtrack(1)
    return count, nodes


@st.composite
def relators(draw, n: int):
    """Up to 12 letters; often with extra copies of the top generator, so
    that runs of lower letters sit between repeated letters +-x_s."""
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    rel = draw(st.lists(letter, min_size=1, max_size=12))
    top = max(abs(x) for x in rel)
    for _ in range(draw(st.integers(0, 2))):
        rel.insert(draw(st.integers(0, len(rel))), draw(st.sampled_from((top, -top))))
    return tuple(rel)


@st.composite
def presentations(draw):
    n = draw(st.integers(2, 5))
    return GroupPresentation(n, tuple(draw(st.lists(relators(n), max_size=n + 1))))


@settings(max_examples=80, deadline=None)
@given(presentations(), st.sampled_from(("Z/2", "Z/3", "Z/5", "S3", "Q8")))
@example(GroupPresentation(3, ((1, 2, 3, 1, 3, 2),)), "S3")  # runs of non-commuting letters
def test_hom_count_equals_depth_first_search(pres, group):
    G = builtin_group(group)
    count, nodes = dfs_hom_count(pres, G)
    assert hom_count(pres, G, budget=nodes) == count
    with pytest.raises(BudgetExceededError):
        hom_count(pres, G, budget=nodes - 1)


def genus1_words(count: int, seed: int):
    """Words of 0 to 8 letters over a, b, with exponents from -3 to 3."""
    rng = random.Random(seed)
    return [
        word_product(1, [letter(1, rng.choice("ab"), rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(rng.randint(0, 8))])
        for _ in range(count)
    ]


@pytest.mark.parametrize("group", ("S3", "Q8", "Z/6"))
def test_genus1_presentations_equal_the_abelian_oracle(group):
    """The surface-group presentations of genus-1 gluings and mapping tori
    give the H_1, the homomorphism count and the minimal passing budget of
    the presentations read off the SL2(Z) image."""
    G = builtin_group(group)
    for w in genus1_words(12, G.order) + [random_word(1, 10, seed) for seed in range(3)]:
        for desc in (HeegaardGluing(1, w), MappingTorus(1, w)):
            pres, oracle = presentation(desc), abelian_genus1_presentation(desc)
            assert homology_h1(pres) == homology_h1(oracle), desc
            count, nodes = dfs_hom_count(oracle, G)
            assert hom_count(pres, G, budget=nodes) == count, desc
            with pytest.raises(BudgetExceededError):
                hom_count(pres, G, budget=nodes - 1)


def test_hom_count_budget_at_the_search_node_count():
    # each catalogue curve twice, none twice in a row: relators of up to
    # 128 letters in which the fibre generators sit between letters +-t
    balanced = MappingTorus(2, parse_word(2, "c2*s*c2*c5*c1*c3^-1*c4*s*c4^-1*c1*c5^-1*c3^-1"))
    for desc, group in (
        (MappingTorus(2, parse_word(2, "c1*c3*s^-1*c2*c5")), "Q8"),
        (balanced, "Q8"),
        (balanced, "Z/4"),
        (HeegaardGluing(2, parse_word(2, "c1*c3")), "S3"),
        (LensSurgery(5), "Z/5"),
    ):
        pres, G = presentation(desc), builtin_group(group)
        count, nodes = dfs_hom_count(pres, G)
        assert hom_count(pres, G, budget=nodes) == count
        with pytest.raises(BudgetExceededError):
            hom_count(pres, G, budget=nodes - 1)


@pytest.mark.parametrize("block", (1, 5, 7))
def test_hom_count_blocks_of_batches_keep_counts_and_budget(monkeypatch, block):
    """Batches of two parents (|G| = 8 on a chunk of 16), their runs and
    tails evaluated for blocks of one, two and three batches: the count
    and the node budget are those of the depth-first search."""
    monkeypatch.setattr(manifolds, "_HOM_CHUNK", 16)
    monkeypatch.setattr(manifolds, "_HOM_BLOCK", block)
    balanced = MappingTorus(2, parse_word(2, "c2*s*c2*c5*c1*c3^-1*c4*s*c4^-1*c1*c5^-1*c3^-1"))
    others = (MappingTorus(2, parse_word(2, "c1*c3*s^-1*c2*c5")), HeegaardGluing(2, parse_word(2, "c1*c3")))
    for desc in (balanced, *others):
        pres, G = presentation(desc), builtin_group("Q8")
        count, nodes = dfs_hom_count(pres, G)
        assert hom_count(pres, G, budget=nodes) == count
        with pytest.raises(BudgetExceededError):
            hom_count(pres, G, budget=nodes - 1)


_CYCLIC = {m: builtin_group(f"Z/{m}") for m in (40, 257, 300)}


def abelian_hom_count(pres: GroupPresentation, m: int) -> int:
    """|Hom(pi, Z/m)| = |Hom(H_1, Z/m)| = m^rank * prod gcd(d_i, m)."""
    rank, torsion = homology_h1(pres)
    return m**rank * math.prod(math.gcd(d, m) for d in torsion)


# Z/257 and Z/300 have more than 256 elements: their levels are stored as intp
@settings(max_examples=40, deadline=None)
@given(st.lists(relators(2), max_size=3), st.sampled_from(sorted(_CYCLIC)))
def test_hom_count_into_cyclic_groups_equals_the_homology_count(rels, m):
    pres = GroupPresentation(2, tuple(rels))
    assert hom_count(pres, _CYCLIC[m]) == abelian_hom_count(pres, m)


@pytest.mark.parametrize("m", sorted(_CYCLIC))
@pytest.mark.parametrize("seed", range(8))
def test_hom_count_of_genus_two_gluings_equals_the_homology_count(seed, m):
    pres = presentation(HeegaardGluing(2, random_word(2, 12, seed)))
    assert hom_count(pres, _CYCLIC[m]) == abelian_hom_count(pres, m)


# word -> ((RT at p = 5), (RT at p = 7), |Hom(pi1, Q8)|, |Hom(pi1, S3)|) of
# the genus-2 mapping torus, taken from the per-entry CycElem product and
# the depth-first homomorphism count
MAPPING_TORUS_PINS = {
    "c1*c3*s^-1*c2*c5": ((-3, 0, 1, 0, -2, 0, 3, 0), (2, 0, -4, 0, -2, 0, -4, 0, -5, 0, -2, 0), 64, 36),
    "c1*c2": ((0, 0, -1, 0, 0, 0, -2, 0), (0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0), 176, 72),
    "s*c4^-1*c3^2": ((-1, 0, -1, 0, 0, 0, 1, 0), (3, 0, -1, 0, 1, 0, -4, 0, -2, 0, -5, 0), 352, 156),
    "c5*c1^-1*s^2*c2": ((1, 0, 0, 0, 0, 0, -1, 0), (3, 0, -2, 0, 0, 0, -3, 0, 0, 0, -2, 0), 64, 18),
    "c3*c4*c5*c1*c2*s": ((-2, 0, 0, 0, -2, 0, 1, 0), (3, 0, -1, 0, 0, 0, -2, 0, -2, 0, -3, 0), 8, 18),
}


def test_mapping_torus_invariants_pinned():
    for word, (rt5, rt7, q8, s3) in MAPPING_TORUS_PINS.items():
        desc = MappingTorus(2, parse_word(2, word))
        assert rt_closed(desc, 5) == CycElem(5, rt5)
        assert rt_closed(desc, 7) == CycElem(7, rt7)
        assert dw_invariant(desc, builtin_group("Q8")) == Fraction(q8, 8)
        assert dw_invariant(desc, builtin_group("S3")) == Fraction(s3, 6)


def test_mapping_torus_rt_pinned_at_p11():
    """Its largest exact product bound is about 2^41, past one word-size
    prime: the multi-modular product must recombine residues from several."""
    desc = MappingTorus(2, parse_word(2, "c1*c3^-1*c5"))
    want = (7, 0, 1, 0, 1, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 4, 0, -1, 0)
    assert rt_closed(desc, 11) == CycElem(11, want)


def test_dw_trivial_group_baseline():
    for G in GROUPS:
        assert dw_invariant(S3, G) == Fraction(1, G.order)


def test_dw_lens_s3_value():
    assert dw_invariant(LensSurgery(3), builtin_group("S3")) == Fraction(1, 2)


def test_dw_two_oracle_lens():
    for G in GROUPS:
        for b in range(1, 7):
            assert dw_invariant(LensSurgery(b), G) == dw_invariant_tqft(LensSurgery(b), G)


def test_dw_two_oracle_torus_bundles():
    for G in GROUPS:
        for seed in range(5):
            w = random_word(1, 6, seed)
            desc = MappingTorus(1, w)
            assert dw_invariant(desc, G) == dw_invariant_tqft(desc, G)


def test_dw_two_oracle_heegaard_words():
    G = builtin_group("S3")
    for seed in range(4):
        w = random_word(1, 5, 50 + seed)
        desc = HeegaardGluing(1, w)
        assert dw_invariant(desc, G) == dw_invariant_tqft(desc, G)


def test_dw_lens_surgery_matches_heegaard_word():
    # the surgery description and the genus-1 gluing word describe the
    # same lens space, so both Dijkgraaf-Witten routes agree on both
    G = builtin_group("S3")
    for b in range(1, 7):
        word_desc = HeegaardGluing(1, parse_word(1, f"b^{b}"))
        assert dw_invariant(word_desc, G) == dw_invariant(LensSurgery(b), G)
        assert dw_invariant_tqft(word_desc, G) == dw_invariant_tqft(LensSurgery(b), G)


class LoopTorusTheory:
    """The genus-1 Dijkgraaf-Witten theory element by element: the oracle
    for the whole-array DwTheory(G, 1)."""

    def __init__(self, G):
        self.G = G
        n = G.order
        self.pairs = [(x, y) for x in range(n) for y in range(n) if G.mul(x, y) == G.mul(y, x)]
        self.canon = {
            (x, y): min((self.conj(g, x), self.conj(g, y)) for g in range(n)) for x, y in self.pairs
        }
        self.classes = sorted(set(self.canon.values()))

    def conj(self, g, a):
        return self.G.mul(self.G.mul(g, a), self.G.inv(g))

    def power(self, a, k):
        if k < 0:
            a, k = self.G.inv(a), -k
        acc = self.G.identity
        while k:
            if k & 1:
                acc = self.G.mul(acc, a)
            a, k = self.G.mul(a, a), k >> 1
        return acc

    def act(self, W, x, y):
        G = self.G
        nx = G.mul(self.power(x, W[0][0]), self.power(y, W[1][0]))
        ny = G.mul(self.power(x, W[0][1]), self.power(y, W[1][1]))
        return nx, ny

    def permutation(self, word):
        W = h1_action(word)
        return tuple(self.classes.index(self.canon[self.act(W, *c)]) for c in self.classes)

    def pairing(self, word):
        W, e = h1_action(word), self.G.identity
        total = sum(1 for x, y in self.pairs if x == e and self.act(W, x, y)[0] == e)
        return Fraction(total, self.G.order)


ORACLE_GROUPS = GROUPS + [
    builtin_group("Z/12"),
    FiniteGroupTable.from_permutations("A4", [(1, 2, 0, 3), (0, 2, 3, 1)]),
]


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.name)
def test_dw_torus_theory_equals_the_element_loop(G):
    """The states are the commuting pairs; a mapping torus's trace is the
    number of classes the word's SL2(Z) image fixes, and a gluing's
    pairing the oracle's."""
    oracle, theory = LoopTorusTheory(G), DwTheory(G, 1)
    assert [divmod(int(k), G.order) for k in theory.states] == sorted(oracle.pairs)
    words = [random_word(1, 8, seed) for seed in range(20)]
    words.append(parse_word(1, "a^1000003 * b^-77"))
    for w in words:
        perm = oracle.permutation(w)
        assert theory.trace(w) == sum(i == j for i, j in enumerate(perm))
        assert theory.pairing_invariant(w) == oracle.pairing(w)


def test_dw_three_torus():
    t3 = MappingTorus(1, empty_word(1))
    G = builtin_group("Z2")
    assert dw_invariant(t3, G) == 4
    theory = DwTheory(G, 1)
    assert theory.trace(empty_word(1)) == theory.dim() == 4


def test_dw_connected_sum_identity():
    for G in (builtin_group("Z2"), builtin_group("S3")):
        for pair in ((LensSurgery(2), LensSurgery(3)), (LensSurgery(4), LensSurgery(6))):
            lhs = dw_invariant(ConnectedSum(*pair), G) * Fraction(1, G.order)
            rhs = dw_invariant(pair[0], G) * dw_invariant(pair[1], G)
            assert lhs == rhs


def test_tn_kernel_lemma_genus1():
    # t^n acts as the identity permutation once n is a multiple of e(G)
    for G in GROUPS:
        theory = DwTheory(G, 1)
        n = G.exponent
        ident = list(range(theory.dim()))
        for c in ("a", "b"):
            for k in (1, 2):
                assert theory.permutation(letter(1, c, n * k)).tolist() == ident
        # and a smaller power is generically nontrivial
    theory = DwTheory(builtin_group("Z3"), 1)
    assert theory.permutation(letter(1, "a", 1)).tolist() != list(range(theory.dim()))


A4 = ORACLE_GROUPS[-1]
GENUS2_GROUPS = [builtin_group(f"Z/{n}") for n in (2, 3, 4, 5, 6, 12)] + [
    builtin_group("S3"),
    builtin_group("Q8"),
    A4,
]
# the degrees of the irreducible characters, for Mednykh's formula
CHARACTER_DEGREES = {"S3": (1, 1, 2), "Q8": (1, 1, 1, 1, 2), "A4": (1, 1, 1, 3)}


def genus2_words(count: int, seed: int):
    """Words of 0 to 12 letters over the genus-2 catalogue, with exponents
    from -3 to 3."""
    rng = random.Random(seed)
    curves = ("c1", "c2", "c3", "c4", "c5", "s")
    return [
        word_product(2, [letter(2, rng.choice(curves), rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in range(rng.randint(0, 12))])
        for _ in range(count)
    ]


def hom_count_value(desc, G) -> Fraction:
    return Fraction(hom_count(presentation(desc), G, budget=10**9), G.order)


@pytest.mark.parametrize("G", GENUS2_GROUPS, ids=lambda G: G.name)
def test_dw_genus2_theory_equals_the_homomorphism_count(G):
    theory = DwTheory(G, 2)
    words = [parse_word(2, w) for w in MAPPING_TORUS_PINS] + genus2_words(8, G.order)
    words += [random_word(2, 12, seed) for seed in range(4)]
    for w in words:
        for desc in (HeegaardGluing(2, w), MappingTorus(2, w)):
            want = hom_count_value(desc, G)
            value = theory.trace(w) if isinstance(desc, MappingTorus) else theory.pairing_invariant(w)
            assert value == want, desc
            assert dw_invariant(desc, G) == want, desc


@pytest.mark.parametrize("G", GENUS2_GROUPS, ids=lambda G: G.name)
def test_dw_genus2_states_are_the_homomorphisms_mednykh_counts(G):
    """|Hom(pi1 Sigma_g, G)| = |G|^(2g-1) sum_chi chi(1)^(2-2g) (Mednykh,
    1978): 18 for S3, 40 for Q8, 48 for A4 and n^2 for Z/n at genus 1, and
    486, 2 176, 5 376 and n^4 at genus 2; the keys are sorted and every
    state satisfies the surface relator."""
    n, T, inv = G.order, G.table, G.inverse
    degrees = CHARACTER_DEGREES.get(G.name, (1,) * n)
    # at genus 1, |G| k(G) commuting pairs, k(G) = len(degrees) classes
    counts = {1: {"S3": 18, "Q8": 40, "A4": 48}, 2: {"S3": 486, "Q8": 2176, "A4": 5376}}
    for genus in (1, 2):
        theory = DwTheory(G, genus)
        assert theory.dim() == n ** (2 * genus - 1) * sum(
            Fraction(1, d ** (2 * genus - 2)) for d in degrees
        )
        assert counts[genus].get(G.name, n ** (2 * genus)) == theory.dim()
        assert (np.diff(theory.states.astype(np.int64)) > 0).all()
        values = theory.values.astype(np.intp)
        acc, key = np.full(theory.dim(), G.identity), np.zeros(theory.dim(), dtype=np.int64)
        for x in SURFACES[genus][0]:
            acc = T[acc, values[x - 1] if x > 0 else inv[values[-x - 1]]]
        for v in values:
            key = key * n + v
        assert (acc == G.identity).all()
        assert theory.states.tolist() == key.tolist()


def test_dw_genus2_budget_refuses_before_allocating():
    for G in (builtin_group("S3"), builtin_group("Q8"), A4):
        for genus in (1, 2):
            states = DwTheory(G, genus).dim()
            assert DwTheory(G, genus, budget=states).dim() == states
            with pytest.raises(BudgetExceededError):
                DwTheory(G, genus, budget=states - 1)
        with pytest.raises(BudgetExceededError):
            dw_invariant(MappingTorus(2, empty_word(2)), G, budget=states - 1)
    # 2 560 000 states of Z/40: refused with far less than one byte per state allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            DwTheory(builtin_group("Z/40"), 2, budget=40**4 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40**4 // 10


@pytest.mark.parametrize("name", ("S3", "Q8", "Z/12", "A4"))
def test_dw_genus2_exponents_act_mod_the_group_exponent(name):
    G = A4 if name == "A4" else builtin_group(name)
    e = G.exponent
    for k in (10**12, 10**12 + 1, -(10**12) - 1, 7 * e, e + 2):
        for rest in ("c3", "c2^-1*s*c5"):
            full = parse_word(2, f"c1^{k}*{rest}")
            reduced = parse_word(2, f"c1^{k % e}*{rest}" if k % e else rest)
            for cls in (HeegaardGluing, MappingTorus):
                assert dw_invariant(cls(2, full), G) == hom_count_value(cls(2, reduced), G)


@pytest.mark.parametrize("name", ("S3", "Q8", "Z/12", "A4"))
def test_dw_genus1_exponents_act_mod_the_group_exponent(name):
    """Genus-1 gluings and tori, lens spaces, sums and doubles go through
    hom_count with every exponent reduced mod e(G) first."""
    G = A4 if name == "A4" else builtin_group(name)
    e = G.exponent
    shapes = (
        "heegaard:1:a^K*b",
        "mtorus:1:a^K*b^-1*a",
        "lens:K",
        "sum:(mtorus:1:a^K*b),(heegaard:1:b^K*a)",
        "double:(bounded:2:1:c1^K*c3)",
    )
    for k in (10**12, 10**12 + 1, -(10**12) - 1, 7 * e, e + 2):
        for shape in shapes:
            full = parse_desc(shape.replace("K", str(k)))
            want = hom_count_value(parse_desc(shape.replace("K", str(k % e))), G)
            assert dw_invariant(full, G) == want, full
            if shape.startswith(("heegaard", "mtorus", "lens")):
                assert dw_invariant_tqft(full, G) == want, full


def test_dw_genus1_huge_exponent_values():
    S3_group = builtin_group("S3")
    for text, want in (("mtorus:1:a^1000000000000*b", 3), ("lens:1000000000000", Fraction(2, 3))):
        desc = parse_desc(text)
        assert dw_invariant(desc, S3_group) == dw_invariant_tqft(desc, S3_group) == want


def test_dw_genus2_huge_exponent_values():
    S3_group = builtin_group("S3")
    gluing = parse_desc("heegaard:2:c1^1000000000000*c3")
    assert dw_invariant(gluing, S3_group) == Fraction(2, 3)
    assert dw_invariant(gluing, S3_group) == hom_count_value(parse_desc("heegaard:2:c1^4*c3"), S3_group)
    torus = parse_desc("mtorus:2:c1^1000000000000*c3")
    assert dw_invariant(torus, S3_group) == hom_count_value(parse_desc("mtorus:2:c1^4*c3"), S3_group)


def test_dw_theory_genus_is_one_or_two():
    with pytest.raises(DescError):
        DwTheory(builtin_group("Z2"), 3)


def test_dw_closed_only():
    with pytest.raises(DescError):
        dw_invariant(BoundedHeegaard(2, 1, empty_word(2)), builtin_group("Z2"))


# -- quantum invariants ----------------------------------------------------------------


def test_rt_s3_is_eta():
    for p in (5, 7):
        assert rt_closed(S3, p) == eta(p)


def test_rt_torus_times_circle_is_dimension():
    for p in (5, 7):
        val = rt_closed(MappingTorus(1, empty_word(1)), p)
        assert val == CycElem.from_int(p, rep_dim(1, p))


def test_rt_s1xs2_is_one():
    assert rt_closed(HeegaardGluing(1, empty_word(1)), 5) == CycElem.one(5)
    assert rt_closed(LensSurgery(0), 5) == CycElem.one(5)


def test_rt_lens_two_oracle_absolute_values():
    for p in (5, 7):
        for b in range(1, 8):
            surgery = rt_closed(LensSurgery(b), p)
            pairing = rt_closed(HeegaardGluing(1, parse_word(1, f"b^{b}")), p)
            assert abs2(surgery) == abs2(pairing)


def test_rt_heegaard_stabilization():
    p = 5
    for b in range(1, 6):
        g1 = rt_closed(HeegaardGluing(1, parse_word(1, f"b^{b}")), p)
        g2 = rt_closed(HeegaardGluing(2, parse_word(2, f"c1^{b} * c4*c5*c4")), p)
        assert abs2(g1) == abs2(g2)


def test_rt_connected_sum_ideal_identity():
    from qtop.cyclotomic import CycIdeal

    p = 5
    m1, m2 = LensSurgery(2), LensSurgery(3)
    lhs = rt_closed(ConnectedSum(m1, m2), p)
    rhs = rt_closed(m1, p) * rt_closed(m2, p) * eta(p).inv()
    assert CycIdeal.from_generators([lhs]) == CycIdeal.from_generators([rhs])
    assert lhs == rhs  # with our conventions the identity is exact


def test_rt_mapping_torus_trace_conjugation_invariant():
    p = 5
    w = random_word(2, 5, 9)
    g = random_word(2, 4, 10)
    conj = g * w * g.inverse()
    assert rt_closed(MappingTorus(2, w), p) == rt_closed(MappingTorus(2, conj), p)


def test_rt_double_of_ball_is_s3():
    # capping the stabilized S^3 word leaves a ball; its double is S^3
    ball = BoundedHeegaard(2, 0, parse_word(2, "c2*c1*c2 * c4*c5*c4"))
    assert rt_closed(Double(ball), 5) == rt_closed(S3, 5)


def test_rt_double_values_match_connected_sum_count():
    # Z(#^k (S^1 x S^2)) = eta^{1-k}; the rank of H_1 counts the summands
    p = 5
    for half in (BoundedHeegaard(2, 0, empty_word(2)), BoundedHeegaard(2, 1, empty_word(2))):
        rank, torsion = homology_of(Double(half))
        assert torsion == ()
        assert rt_closed(Double(half), p) == eta(p).inv() ** (rank - 1)


def test_rt_rejects_bounded():
    with pytest.raises(DescError):
        rt_closed(BoundedHeegaard(2, 1, empty_word(2)), 5)


# -- the compressed walk kernel ---------------------------------------------------------


R41 = ResidueSpec.for_primes(5, 41)
WALK_WORDS = [word_in_subgroup(3, 1, j + 1).word for j in range(3)]
WALK_WORDS += [w.inverse() for w in WALK_WORDS]


def _compressed(vec, boundary_genus):
    return not vec[list(surviving_indices(5, boundary_genus))].any()


@pytest.mark.parametrize("boundary_genus", (0, 1))
def test_compressed_walk_of_no_steps_is_the_base_vacuum_column(boundary_genus):
    desc = BoundedHeegaard(2, boundary_genus, parse_word(2, "c1*c3^-1*s"))
    rows, vanishing = compressed_walks(desc, R41, WALK_WORDS)(np.zeros((1, 0), dtype=np.intp))
    column = rho(desc.word, R41)[:, vacuum_index(2, 5)]
    assert rows.tolist() == [column.tolist()]
    assert vanishing.tolist() == [_compressed(column, boundary_genus)]


@pytest.mark.parametrize("boundary_genus", (0, 1))
def test_compressed_walk_rows_follow_the_letter_chain(boundary_genus):
    # every 3-step walk: each row is rho(base f) e_vac carried through the
    # letters of base f one at a time
    desc = BoundedHeegaard(2, boundary_genus, parse_word(2, "c2*s^-1*c5"))
    picks = np.array(list(itertools.product(range(len(WALK_WORDS)), repeat=3)))
    rows, vanishing = compressed_walks(desc, R41, WALK_WORDS)(picks)
    assert rows.shape == (len(picks), rep_dim(2, 5))
    e_vac = vacuum_vector(2, R41)
    for row, flag, chosen in zip(rows, vanishing, picks.tolist()):
        f = word_product(2, [WALK_WORDS[i] for i in chosen])
        expected = rho_apply(desc.word * f, R41, e_vac)
        assert row.tolist() == expected.tolist()
        assert flag == _compressed(expected, boundary_genus)
    if boundary_genus == 0:
        # one of these walks vanishes; a zero-step walk from its regluing
        # gives the same row, flagged
        (hit,) = np.flatnonzero(vanishing)
        f = word_product(2, [WALK_WORDS[i] for i in picks[hit].tolist()])
        glued = BoundedHeegaard(2, 0, desc.word * f)
        again, flag = compressed_walks(glued, R41, WALK_WORDS)(np.zeros((1, 0), dtype=np.intp))
        assert again.tolist() == [rows[hit].tolist()] and flag.tolist() == [True]


# -- Murakami ---------------------------------------------------------------------------


def test_murakami_s3():
    for p in (5, 7):
        res = murakami_check(S3, p)
        assert res["ok"] and res["h1"] == 1


def test_murakami_lens_family_p5():
    signs = set()
    for n in range(1, 9):
        res = murakami_check(LensSurgery(n), 5)
        assert res["ok"], (n, res)
        if res["h1"] % 5:
            signs.add(res["sign"])
    assert len(signs) == 1  # one consistent global sign


def test_murakami_lens_at_level_p_vanishes():
    res = murakami_check(LensSurgery(5), 5)
    assert res["ok"] and res["residue"] == (0, 0)


def test_murakami_residue_pattern_p7():
    # residues of the even-color theory are n^{(p-3)/2} mod p; at p = 7
    # this is n^2, which differs from +-n for n = 2..5
    for n in range(1, 9):
        res = murakami_check(LensSurgery(n), 7)
        a, b = res["residue"]
        assert b == 0
        assert a in ((n * n) % 7, (-n * n) % 7)
        assert res["ok"] and res["sign"] == 1


def lens_closed_form(p, b):
    """RT/eta of L(b,1), b > 0, p not dividing b, from the Gauss sum:
    (-1)^(b-1) A^(1-b) (b/p) (u^(-2b') - 1)/(u^-2 - 1) with b' = b^-1 mod p.

    The quotient is summed as a geometric series and every power is taken
    with a nonnegative exponent, so no ring inversion is involved.
    """
    A, u = elem_A(p), elem_u(p)
    b_inv = pow(b, -1, p)
    legendre = 1 if pow(b, (p - 1) // 2, p) == 1 else -1
    geometric = CycElem.zero(p)
    for k in range(b_inv):
        geometric = geometric + u ** (-2 * k % p)
    return (-1) ** (b - 1) * legendre * A ** ((1 - b) % (2 * p)) * geometric


def test_lens_invariant_closed_form_and_murakami_law():
    # the closed form reduces mod (u - 1) to (b/p) b^-1 = b^{(p-3)/2}
    for p in (5, 7, 11):
        for b in range(1, 2 * p):
            if b % p == 0:
                continue
            val = rt_closed(LensSurgery(b), p).exact_div(eta(p))
            assert val == lens_closed_form(p, b), (p, b)
            res = murakami_check(LensSurgery(b), p)
            assert res["residue"] == (pow(b, (p - 3) // 2, p), 0), (p, b)
            assert res["ok"] and res["sign"] == 1, (p, b, res)
    # the genus-1 Heegaard gluing along b^3 is L(3,1) reframed by kappa;
    # kappa(5) is a power zeta^j, whose residue is w^j, so the check must
    # report the phase w^j on the law's value 3^{(5-3)/2} = 3
    p = 5
    heegaard = HeegaardGluing(1, parse_word(1, "b^3"))
    assert rt_closed(heegaard, p) == rt_closed(LensSurgery(3), p) * kappa(p)
    j = next(j for j in range(4 * p) if CycElem.root_power(p, j) == kappa(p))
    expected = {0: (3, 0), 1: (0, 3), 2: (-3 % p, 0), 3: (0, -3 % p)}[j % 4]
    res = murakami_check(heegaard, p)
    assert res["residue"] == expected
    assert res["ok"] and res["sign"] == 1j ** (j % 4)


def test_murakami_requires_qhs():
    with pytest.raises(NotQHSError):
        murakami_check(MappingTorus(1, empty_word(1)), 5)


def test_murakami_residue_map_is_multiplicative():
    import random as _r

    rng = _r.Random(4)
    from qtop.cyclotomic import ring

    def rand_int_elem():
        return CycElem.make(5, [rng.randint(-4, 4) for _ in range(ring(5).degree)], 0)

    for _ in range(20):
        x, y = rand_int_elem(), rand_int_elem()
        ax, bx = murakami_residue(x)
        ay, by = murakami_residue(y)
        axy, bxy = murakami_residue(x * y)
        # (a + bw)(a' + b'w) with w^2 = -1
        assert axy == (ax * ay - bx * by) % 5
        assert bxy == (ax * by + bx * ay) % 5
