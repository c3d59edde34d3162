"""Mapping classes as Dehn-twist words on genus 1 and 2 surfaces.

Words are free products of twists over a fixed curve catalogue; no word
problem is solved.  The module provides the homological action, Torelli
membership, the action on the surface group (used for fundamental-group
presentations of glued manifolds), and constructive generation of
elements of lower-central-series / twist-power subgroups.

Curve catalogue and conventions
-------------------------------
genus 1:  a, b   with i(a, b) = 1; the quantum representation sends t_a
          to the diagonal twist matrix, so `a` is the meridian of the
          inner handlebody.
genus 2:  Humphries chain c1, c2, c3, c4, c5 (consecutive curves meet
          once) plus the separating curve s around the bridge of the
          dumbbell; c2 and c4 are the two handlebody meridians, s bounds
          the one-holed torus containing c1, c2.

pi1(Sigma_2) = <a1 b1 a2 b2 | [a1,b1][a2,b2]>, a_i the cores, b_i the
meridians.  The twist action on pi1 (below) preserves the relator and
satisfies the chain braid/commutation relations up to inner
automorphisms; (t_c1 t_c2)^6 agrees with t_s up to inner, the chain
relation of the one-holed torus.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache


class WordError(ValueError):
    """Unknown curve, malformed word syntax, or unsupported surface."""


GENUS_CURVES = {1: ("a", "b"), 2: ("c1", "c2", "c3", "c4", "c5", "s")}

# homology classes in the basis (a1, b1)[, (a2, b2)]; form <a_i, b_i> = -1
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


@dataclass(frozen=True)
class SurfaceSpec:
    genus: int
    boundary: int = 0

    def __post_init__(self):
        if self.genus not in (1, 2) or self.boundary not in (0, 1):
            raise WordError(f"unsupported surface (genus={self.genus}, boundary={self.boundary})")


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
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def commutator(self, other: "TwistWord") -> "TwistWord":
        return self * other * self.inverse() * other.inverse()

    def exponent_sums(self) -> dict[str, int]:
        sums = {c: 0 for c in GENUS_CURVES[self.genus]}
        for c, e in self.letters:
            sums[c] += e
        return sums

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


# -- homological action ---------------------------------------------------


def symplectic_form(genus: int) -> list[list[int]]:
    """Gram matrix of <.,.> in the (a1, b1, a2, b2, ...) basis; <a_i, b_i> = -1."""
    n = 2 * genus
    J = [[0] * n for _ in range(n)]
    for i in range(genus):
        J[2 * i][2 * i + 1] = -1
        J[2 * i + 1][2 * i] = 1
    return J


@lru_cache(maxsize=None)
def _transvection(genus: int, curve: str, exp: int) -> tuple[tuple[int, ...], ...]:
    """Action of t_curve^exp on H_1 (a transvection), rows first."""
    n = 2 * genus
    J = symplectic_form(genus)
    gamma = CURVE_CLASSES[genus][curve]
    cols = []
    for j in range(n):
        v = [1 if i == j else 0 for i in range(n)]
        pairing = sum(v[i] * J[i][k] * gamma[k] for i in range(n) for k in range(n))
        cols.append([v[i] + exp * pairing * gamma[i] for i in range(n)])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def h1_action(word: TwistWord) -> tuple[tuple[int, ...], ...]:
    """Product of transvections, one per twist letter."""
    n = 2 * word.genus
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for curve, exp in word.letters:
        M = _mat_mul(M, _transvection(word.genus, curve, exp))
    return tuple(tuple(r) for r in M)


def is_symplectic(M, genus: int) -> bool:
    J = symplectic_form(genus)
    n = 2 * genus
    MT = [[M[j][i] for j in range(n)] for i in range(n)]
    return _mat_mul(MT, _mat_mul(J, [list(r) for r in M])) == J


def is_torelli(word: TwistWord) -> bool:
    n = 2 * word.genus
    return h1_action(word) == tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


# -- action on the surface group (genus 2) --------------------------------
#
# free-group words over generators 1=a1, 2=b1, 3=a2, 4=b2 as tuples of
# signed ints; the relator is [a1,b1][a2,b2].

SURFACE_RELATOR = (1, 2, -1, -2, 3, 4, -3, -4)


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


def free_mul(*ws):
    acc = []
    for w in ws:
        acc.extend(w)
    return free_reduce(acc)


_SIGMA = (1, 2, -1, -2)  # [a1, b1], the separating curve as a based loop

_PI1_TWISTS = {
    "c1": {2: (2, 1)},
    "c2": {1: (1, -2)},
    "c3": {2: (3, 1, 2), 4: (1, 3, 4)},
    "c4": {3: (3, -4)},
    "c5": {4: (4, 3)},
    "s": {
        3: free_mul(_SIGMA, (3,), free_inverse(_SIGMA)),
        4: free_mul(_SIGMA, (4,), free_inverse(_SIGMA)),
    },
}


def _twist_auto(curve: str, exp: int) -> dict[int, tuple[int, ...]]:
    base = {g: (g,) for g in (1, 2, 3, 4)}
    base.update(_PI1_TWISTS[curve])
    auto = base
    if exp < 0:
        auto = _invert_auto(base)
    out = {g: (g,) for g in (1, 2, 3, 4)}
    for _ in range(abs(exp)):
        out = _compose_auto(auto, out)
    return out


def _compose_auto(phi, psi):
    """phi after psi."""
    return {g: apply_auto(phi, psi[g]) for g in (1, 2, 3, 4)}


def _invert_auto(phi):
    # all catalogue twists have triangular single-generator form, so a
    # fixed-point iteration on generators terminates immediately
    inv = {}
    for g in (1, 2, 3, 4):
        img = phi[g]
        if img == (g,):
            inv[g] = (g,)
    for g in (1, 2, 3, 4):
        if g in inv:
            continue
        # solve phi(w) = (g,) for w of the form  x * g * y  built from fixed gens
        img = phi[g]
        left = []
        right = []
        for x in img:
            if abs(x) == g:
                break
            left.append(x)
        seen = False
        for x in img:
            if abs(x) == g:
                seen = True
                continue
            if seen:
                right.append(x)
        lw = free_inverse(_pullback(tuple(left), phi, inv))
        rw = free_inverse(_pullback(tuple(right), phi, inv))
        inv[g] = free_mul(lw, (g,), rw)
        # correctness is asserted below
    for g in (1, 2, 3, 4):
        assert apply_auto(phi, inv[g]) == (g,), "twist inversion failed"
    return inv


def _pullback(w, phi, partial_inv):
    out = []
    for x in w:
        pre = partial_inv.get(abs(x), (abs(x),))
        out.extend(pre if x > 0 else free_inverse(pre))
    return free_reduce(tuple(out))


def apply_auto(phi, w):
    out = []
    for x in w:
        img = phi[abs(x)]
        out.extend(img if x > 0 else free_inverse(img))
    return free_reduce(tuple(out))


def pi1_action(word: TwistWord) -> dict[int, tuple[int, ...]]:
    """Automorphism of pi1(Sigma_2) induced by a genus-2 word."""
    if word.genus != 2:
        raise WordError("pi1_action is defined for genus-2 words")
    out = {g: (g,) for g in (1, 2, 3, 4)}
    for curve, exp in word.letters:
        out = _compose_auto(out, _twist_auto(curve, exp))
    return out


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


def word_in_subgroup(n: int, k: int, seed: int, genus: int = 2) -> CertifiedWord:
    """A word certified by construction to lie in Gamma_k I cap T_n.

    Base letters are n-th powers of conjugated separating twists (members
    of I cap T_n); depth-k left-nested commutators of such letters land in
    Gamma_k I cap T_n.  Genus 1 is rejected: its Torelli group is trivial.
    """
    if genus != 2:
        raise WordError("only genus 2 supported: the genus-1 Torelli group is trivial")
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


def random_word(genus: int, length: int, seed: int, curves=None) -> TwistWord:
    """Uniform random word of the given letter length (for sampling)."""
    rng = random.Random(seed)
    pool = tuple(curves) if curves is not None else GENUS_CURVES[genus]
    w = TwistWord(genus)
    for _ in range(length):
        w = w * letter(genus, rng.choice(pool), rng.choice((1, -1)))
    return w
