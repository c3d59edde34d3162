"""Reference implementations of predicates only the tests ask about."""

from functools import lru_cache

from sympy import Poly, cyclotomic_poly, resultant, symbols

from qtop.cyclotomic import CycElem, split_p_part
from qtop.manifolds import GroupPresentation, HeegaardGluing
from qtop.mcg import GENUS_CURVES, free_inverse, free_reduce, h1_action
from qtop.pmatrix import PMatrix

_T = symbols("t")


@lru_cache(maxsize=None)
def _phi(p: int) -> Poly:
    return Poly(cyclotomic_poly(4 * p, _T), _T)


def is_unit(x: CycElem) -> bool:
    """Whether x is a unit of Z[zeta_{4p}, 1/p]: its field norm, the
    resultant of Phi_{4p} with its numerator (p is a unit, so the
    denominator does not matter), is +-p^k."""
    if x.is_zero():
        return False
    norm = resultant(_phi(x.p), Poly(list(reversed(x.coeffs)), _T))
    return abs(split_p_part(int(norm), x.p)[1]) == 1


def in_half_conductor_subring(x: CycElem) -> bool:
    """Whether x lies in Z[1/p, zeta_{2p}] = Z[1/p, A]: fixed by the Galois
    element zeta -> zeta^{2p+1}, which fixes zeta^2 and negates i."""
    return x.galois(2 * x.p + 1) == x


def cyc_from_json(doc: dict) -> CycElem:
    """Inverse of CycElem.to_json."""
    return CycElem.make(int(doc["p"]), [int(c) for c in doc["coeffs"]], int(doc["denomExp"]))


def exponent_sums(word) -> dict[str, int]:
    """Total exponent of each catalogued curve in a twist word."""
    sums = {c: 0 for c in GENUS_CURVES[word.genus]}
    for c, e in word.letters:
        sums[c] += e
    return sums


# homology classes of the catalogued curves in the basis (a1, b1)[, (a2, b2)],
# entered by hand: the oracle that mcg.h1_action, read off the surface-group
# twist table, is checked against
CURVE_CLASSES = {
    1: {"a": (1, 0), "b": (0, 1)},
    2: {
        "c1": (1, 0, 0, 0),
        "c2": (0, 1, 0, 0),
        "c3": (1, 0, 1, 0),
        "c4": (0, 0, 0, 1),
        "c5": (0, 0, 1, 0),
        "s": (0, 0, 0, 0),
    },
}


def symplectic_form(genus: int) -> list[list[int]]:
    """Gram matrix of <.,.> in the (a1, b1, a2, b2, ...) basis; <a_i, b_i> = -1."""
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[2 * i][2 * i + 1] = -1
        J[2 * i + 1][2 * i] = 1
    return J


def scale_entrywise(M: PMatrix, c: CycElem) -> PMatrix:
    """c M, one CycElem product per entry: the oracle for PMatrix.scale."""
    return PMatrix.from_rows(M.p, [[c * x for x in row] for row in M.entries])


def conj_transpose_entrywise(M: PMatrix) -> PMatrix:
    """The conjugate transpose, one CycElem.conjugate per entry: the oracle
    for PMatrix.conj_transpose."""
    return PMatrix.from_rows(M.p, [[x.conjugate() for x in col] for col in zip(*M.entries)])


def _gen_power(g: int, k: int) -> tuple[int, ...]:
    return (g,) * k if k >= 0 else (-g,) * (-k)


def abelian_genus1_presentation(desc) -> GroupPresentation:
    """pi1 of a genus-1 gluing or mapping torus from the word's SL2(Z)
    image W = h1_action(word): <x | x^W10> for a gluing, and
    <x, y, t | [x,y], t x t^-1 = x^W00 y^W10, t y t^-1 = x^W01 y^W11> for a
    mapping torus.  The oracle for the surface-group presentations."""
    W = h1_action(desc.word)
    if isinstance(desc, HeegaardGluing):
        k = abs(W[1][0])
        return GroupPresentation(1, ((1,) * k if k else (),))
    x, y, t = 1, 2, 3
    rels = [(x, y, -x, -y)]
    images = [
        _gen_power(x, W[0][0]) + _gen_power(y, W[1][0]),
        _gen_power(x, W[0][1]) + _gen_power(y, W[1][1]),
    ]
    for g, img in zip((x, y), images):
        rels.append(free_reduce((t, g, -t) + free_inverse(img)))
    return GroupPresentation(3, tuple(rels))
