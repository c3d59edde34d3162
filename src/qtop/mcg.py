"""Mapping classes as Dehn-twist words on genus 1 and 2 surfaces.

Words are free products of twists over a fixed curve catalogue; no word
problem is solved.  The module provides the action on the surface group
(used for fundamental-group presentations of glued manifolds), its
abelianization the homological action and Torelli membership, and
constructive generation of lower-central-series / twist-power subgroups.

Curve catalogue and conventions
-------------------------------
genus 1:  a, b   with i(a, b) = 1; the quantum representation sends t_a
          to the diagonal twist matrix, so `a` is the meridian of the
          inner handlebody.
genus 2:  Humphries chain c1, c2, c3, c4, c5 (consecutive curves meet
          once) plus the separating curve s around the bridge of the
          dumbbell; c2 and c4 are the two handlebody meridians, s bounds
          the one-holed torus containing c1, c2.

pi1(Sigma_g) = <a1 b1 .. ag bg | [a1,b1]..[ag,bg]> on generators 1..2g,
for g = 1 and 2.  At genus 1, generator 1 (a) is the meridian and 2 (b)
the core; at genus 2, a_i are the cores and b_i the meridians.  SURFACES
gives each genus's relator and meridians.  Each twist is tabled as one (L, R) pair
per generator g it moves, g -> L g R, where L and R are words in
generators the twist fixes; its inverse is then g -> L^-1 g R^-1.  This
action preserves the relator and satisfies the chain braid/commutation
relations up to inner automorphisms; (t_c1 t_c2)^6 agrees with t_s up to
inner, the chain relation of the one-holed torus.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .cyclotomic import power


class WordError(ValueError):
    """Unknown curve, malformed word syntax, or unsupported surface."""


GENUS_CURVES = {1: ("a", "b"), 2: ("c1", "c2", "c3", "c4", "c5", "s")}


@dataclass(frozen=True)
class TwistWord:
    """A word in Dehn twists: sequence of (curve, nonzero exponent)."""

    genus: int
    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        catalogue = GENUS_CURVES.get(self.genus)
        if catalogue is None:
            raise WordError(f"unsupported genus {self.genus}")
        for curve, exp in self.letters:
            if curve not in catalogue:
                raise WordError(f"unknown curve {curve!r} at genus {self.genus}")
            if exp == 0:
                raise WordError("zero exponent letter")

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if self.genus != other.genus:
            raise WordError("words on different surfaces")
        return TwistWord(self.genus, _merge(self.letters + other.letters))

    def inverse(self) -> "TwistWord":
        return TwistWord(self.genus, tuple((c, -e) for c, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "TwistWord":
        if k == 0:
            return TwistWord(self.genus)
        # _merge is a stack reduction, so products of powers of one word
        # merge to the same word in any grouping
        return power(self if k > 0 else self.inverse(), abs(k))

    def commutator(self, other: "TwistWord") -> "TwistWord":
        return self * other * self.inverse() * other.inverse()

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " * ".join(c if e == 1 else f"{c}^{e}" for c, e in self.letters)

    def to_json(self):
        return {"genus": self.genus, "word": str(self)}


def _merge(letters):
    out: list[tuple[str, int]] = []
    for c, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == c:
            tot = out[-1][1] + e
            out.pop()
            if tot:
                out.append((c, tot))
        else:
            out.append((c, e))
    return tuple(out)


def word_product(genus: int, words) -> TwistWord:
    """The product of `words` in order, merged in one pass; _merge is a stack
    reduction, so this equals the chain of pairwise products."""
    return TwistWord(genus, _merge(tuple(x for w in words for x in w.letters)))


def empty_word(genus: int) -> TwistWord:
    return TwistWord(genus)


def letter(genus: int, curve: str, exp: int = 1) -> TwistWord:
    return TwistWord(genus, ((curve, exp),))


# -- text syntax ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(\[|\]|\(|\)|,|\*|\^|-?\d+|[A-Za-z]\w*)")


def parse_word(genus: int, text: str) -> TwistWord:
    """Parse e.g. "c1^3 * [c2, s]^2"; round-trips with str()."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise WordError(f"bad word syntax at position {pos}: {text[pos:pos+10]!r}")
        tokens.append((m.group(1), pos))
        pos = m.end()
    tokens.append((None, pos))
    idx = 0

    def peek():
        return tokens[idx][0]

    def take(expect=None):
        nonlocal idx
        tok, at = tokens[idx]
        if expect is not None and tok != expect:
            raise WordError(f"expected {expect!r} at position {at}, got {tok!r}")
        idx += 1
        return tok

    def parse_expr():
        word = parse_term()
        while peek() is not None and peek() not in ("]", ")", ","):
            if peek() == "*":
                take()
            word = word * parse_term()
        return word

    def parse_term():
        atom = parse_atom()
        if peek() == "^":
            take()
            tok = take()
            try:
                k = int(tok)
            except (TypeError, ValueError):
                raise WordError(f"expected integer exponent, got {tok!r}") from None
            return atom ** k
        return atom

    def parse_atom():
        tok = peek()
        if tok == "[":
            take()
            lhs = parse_expr()
            take(",")
            rhs = parse_expr()
            take("]")
            return lhs.commutator(rhs)
        if tok == "(":
            take()
            inner = parse_expr()
            take(")")
            return inner
        if tok == "1":
            take()
            return TwistWord(genus)
        if tok is None:
            raise WordError("unexpected end of word")
        take()
        return letter(genus, tok)

    if text.strip() in ("", "1"):
        return TwistWord(genus)
    word = parse_expr()
    if peek() is not None:
        raise WordError(f"trailing input at position {tokens[idx][1]}")
    return word


# -- action on the surface group ---------------------------------------------
#
# free-group words over generators 1=a1, 2=b1, 3=a2, 4=b2 (1=a, 2=b at
# genus 1) as tuples of signed ints

# genus -> (relator [a1,b1]..[ag,bg], meridians)
SURFACES = {1: ((1, 2, -1, -2), (1,)), 2: ((1, 2, -1, -2, 3, 4, -3, -4), (2, 4))}


def free_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_inverse(w):
    return tuple(-x for x in reversed(w))


_SIGMA = (1, 2, -1, -2)  # [a1, b1], the separating curve as a based loop
_GENUS_OF = {curve: genus for genus, curves in GENUS_CURVES.items() for curve in curves}

# Each twist sends a generator g it moves to L.g.R, stored as g: (L, R);
# the generators not listed are fixed.  Invariant: L and R use only
# generators the twist fixes, so the inverse twist is g -> L^-1.g.R^-1.
_PI1_TWISTS = {
    "a": {2: ((), (1,))},
    "b": {1: ((), (-2,))},
    "c1": {2: ((), (1,))},
    "c2": {1: ((), (-2,))},
    "c3": {2: ((3, 1), ()), 4: ((1, 3), ())},
    "c4": {3: ((), (-4,))},
    "c5": {4: ((), (3,))},
    "s": {3: (_SIGMA, free_inverse(_SIGMA)), 4: (_SIGMA, free_inverse(_SIGMA))},
}


@lru_cache(maxsize=None)
def _twist_auto(curve: str, exp: int) -> MappingProxyType:
    """t_curve^exp on the surface group of its genus as generator -> image
    word, read-only because it is cached.  The twist fixes L and R, so
    t^k(g) = L^k.g.R^k."""
    out = {g: (g,) for g in range(1, 2 * _GENUS_OF[curve] + 1)}
    for g, (left, right) in _PI1_TWISTS[curve].items():
        if exp < 0:
            left, right = free_inverse(left), free_inverse(right)
        out[g] = free_reduce(left * abs(exp) + (g,) + right * abs(exp))
    return MappingProxyType(out)


def _compose_auto(phi, psi):
    """phi after psi."""
    return {g: apply_auto(phi, w) for g, w in psi.items()}


def apply_auto(phi, w):
    out = []
    for x in w:
        img = phi[abs(x)]
        out.extend(img if x > 0 else free_inverse(img))
    return free_reduce(tuple(out))


def pi1_action(word: TwistWord) -> dict[int, tuple[int, ...]]:
    """Automorphism of pi1(Sigma_g) induced by a genus-g word."""
    out = {g: (g,) for g in range(1, 2 * word.genus + 1)}
    for curve, exp in word.letters:
        out = _compose_auto(out, _twist_auto(curve, exp))
    return out


# -- homological action ---------------------------------------------------


def abelianize(w, n: int) -> list[int]:
    """The class in H_1 = Z^n of a word in generators 1..n."""
    v = [0] * n
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


@lru_cache(maxsize=None)
def _h1_shifts(curve: str) -> tuple:
    """t_curve on H_1: (ab(L R) as nonzero (index, coefficient) pairs, the
    columns g - 1 it is added to) per nonzero class; t_s has none."""
    columns: dict = {}
    for g, (left, right) in _PI1_TWISTS[curve].items():
        shift = abelianize(left + right, 2 * _GENUS_OF[curve])
        if any(shift):
            columns.setdefault(tuple((h, x) for h, x in enumerate(shift) if x), []).append(g - 1)
    return tuple((shift, tuple(cols)) for shift, cols in columns.items())


def h1_action(word: TwistWord) -> tuple[tuple[int, ...], ...]:
    """The abelianized pi1_action on Python ints: column g is the class of
    the image of generator g.  t_c^k sends a tabled g to L^k.g.R^k, so it
    adds k M ab(L R) to column g of the product M so far; ab(L R) reads
    only columns t_c fixes, so one dot product serves a row's columns."""
    n = 2 * word.genus
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for curve, exp in word.letters:
        for shift, columns in _h1_shifts(curve):
            for row in M:
                dot = exp * sum(row[h] * x for h, x in shift)
                if dot:
                    for g in columns:
                        row[g] += dot
    return tuple(tuple(r) for r in M)


def is_torelli(word: TwistWord) -> bool:
    n = 2 * word.genus
    return h1_action(word) == tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


# -- constructive subgroup membership --------------------------------------


@dataclass(frozen=True)
class CertifiedWord:
    """A twist word plus the construction tree certifying membership in
    Gamma_k I(Sigma_2) intersected with T_n."""

    word: TwistWord
    n: int
    k: int
    certificate: str


def _random_conjugator(rng: random.Random, length: int) -> TwistWord:
    """Random conjugating word with at least one handle-mixing letter.

    Conjugating a separating twist by diagonal-acting curves alone (c2,
    c4, s) fixes its quantum image, which would collapse the generated
    subgroup; forcing one letter from {c1, c3, c5} avoids that.
    """
    if length == 0:
        return TwistWord(2)
    w = letter(2, rng.choice(("c1", "c3", "c5")), rng.choice((1, -1, 2, -2)))
    for _ in range(length - 1):
        c = rng.choice(GENUS_CURVES[2])
        e = rng.choice((1, -1, 2, -2))
        w = w * letter(2, c, e)
    return w


def _base_letter(rng: random.Random, n: int, conj_len: int) -> tuple[TwistWord, str]:
    """A conjugate (g t_s g^-1)^n: separating twist powers lie in I and T_n."""
    g = _random_conjugator(rng, conj_len)
    base = (g * letter(2, "s") * g.inverse()) ** n
    cert = f"({g} . s^{n} . ({g})^-1)" if g.letters else f"s^{n}"
    return base, cert


# certified words twist_search and default_subgroup_walk draw (each also inverted)
SUBGROUP_WORDS = 6


def word_in_subgroup(n: int, k: int, seed: int) -> CertifiedWord:
    """A genus-2 word certified by construction to lie in Gamma_k I cap T_n
    (the genus-1 Torelli group is trivial).

    Base letters are n-th powers of conjugated separating twists (members
    of I cap T_n); depth-k left-nested commutators of such letters land in
    Gamma_k I cap T_n.
    """
    if n < 1 or k < 1:
        raise WordError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    word, cert = _base_letter(rng, n, 0 if seed == 0 and k == 1 else 2)
    for depth in range(2, k + 1):
        other, other_cert = _base_letter(rng, n, 2)
        word = word.commutator(other)
        cert = f"[{cert}, {other_cert}]"
    result = CertifiedWord(word, n, k, cert)
    if not is_torelli(word):
        raise AssertionError("constructed word is not homologically trivial")
    return result


def random_word(genus: int, length: int, seed: int) -> TwistWord:
    """Uniform random word of the given letter length (for sampling)."""
    rng = random.Random(seed)
    pool = GENUS_CURVES[genus]
    w = TwistWord(genus)
    for _ in range(length):
        w = w * letter(genus, rng.choice(pool), rng.choice((1, -1)))
    return w
