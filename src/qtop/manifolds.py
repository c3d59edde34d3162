"""Manifold descriptions and their invariants.

A ManifoldDesc is one of
    LensSurgery(b)                integer surgery on an unknot
    HeegaardGluing(genus, word)   two handlebodies glued by a twist word
                                  (empty word gives #^g (S^1 x S^2))
    MappingTorus(genus, word)
    ConnectedSum(left, right)
    Double(half)                  double of a bounded piece
    BoundedHeegaard(genus, boundary_genus, word)
                                  handlebody glued to a compression body;
                                  the right handle (then both handles) are
                                  compressed for boundary genus 1 (then 0)

Every variant has a derivable fundamental-group presentation; closed
variants have Dijkgraaf-Witten invariants (counted two independent ways
at genus 1) and SO(3) quantum invariants (defined up to a declared
anomaly phase, a power of the Gauss-sum unit kappa).  A compression
piece has a boundary vector, the coordinates of rho(word) e_vac that
the compression keeps (surviving_indices), which compressed_walks reads
mod J along batches of regluing walks; a double's invariant is its
half's vector's Hermitian norm.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .cyclotomic import CycElem, eta, eta_inv
from .groups import FiniteGroupTable
from .mcg import (
    TwistWord,
    empty_word,
    free_inverse,
    free_reduce,
    h1_action,
    parse_word,
    pi1_action,
    SURFACE_RELATOR,
)
from .pmatrix import scalar_ring
from .rep import genus2_basis, rho, rho_apply, vacuum_index, vacuum_vector
from .skein import colors, kappa, kappa_inv, quantum_dim, spectral_color_order, twist


class BudgetExceededError(RuntimeError):
    """Enumeration budget exhausted; partial counts are never returned."""


class NotQHSError(ValueError):
    """Operation requires a rational homology sphere (b_1 = 0)."""


class IntegralityError(ArithmeticError):
    """An integrally-normalized invariant failed to clear its denominator."""


class DescError(ValueError):
    """Malformed or unsupported manifold description."""


# -- group presentations ----------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    """<x_1 .. x_n | relators>, relators as tuples of nonzero signed indices."""

    num_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > self.num_generators:
                    raise DescError(f"bad relator letter {x}")

    @staticmethod
    def parse(text: str) -> "GroupPresentation":
        """Parse `gens: a b; rel: a b a B A; rel: ...` (capitals = inverses)."""
        gens: list[str] = []
        relators: list[tuple[int, ...]] = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            m = re.match(r"(gens|rel)\s*:\s*(.*)", part)
            if not m:
                raise DescError(f"expected 'gens:' or 'rel:' in {part!r}")
            kind, body = m.group(1), m.group(2).split()
            if kind == "gens":
                gens = body
            else:
                rel = []
                for tok in body:
                    low = tok.lower()
                    if low not in gens:
                        raise DescError(f"unknown generator {tok!r}")
                    idx = gens.index(low) + 1
                    rel.append(idx if tok == low else -idx)
                relators.append(tuple(rel))
        if not gens:
            raise DescError("no generators declared")
        return GroupPresentation(len(gens), tuple(relators))

    def __str__(self):
        names = [chr(ord("a") + i) for i in range(self.num_generators)]
        rels = [
            " ".join(names[abs(x) - 1] if x > 0 else names[abs(x) - 1].upper() for x in rel)
            for rel in self.relators
        ]
        return f"gens: {' '.join(names)}; " + "; ".join(f"rel: {r}" for r in rels)


# -- manifold descriptions ---------------------------------------------------


@dataclass(frozen=True)
class LensSurgery:
    b: int

    def __str__(self):
        return f"lens:{self.b}"


@dataclass(frozen=True)
class HeegaardGluing:
    genus: int
    word: TwistWord

    def __post_init__(self):
        if self.genus != self.word.genus:
            raise DescError("word genus does not match splitting genus")

    def __str__(self):
        return f"heegaard:{self.genus}:{self.word}"


@dataclass(frozen=True)
class MappingTorus:
    genus: int
    word: TwistWord

    def __post_init__(self):
        if self.genus != self.word.genus:
            raise DescError("word genus does not match fiber genus")

    def __str__(self):
        return f"mtorus:{self.genus}:{self.word}"


@dataclass(frozen=True)
class ConnectedSum:
    left: "ManifoldDesc"
    right: "ManifoldDesc"

    def __str__(self):
        return f"sum:({self.left}),({self.right})"


@dataclass(frozen=True)
class BoundedHeegaard:
    """Genus-2 handlebody glued to a compression body along a twist word.

    boundary_genus 1: the right handle is compressed; boundary_genus 0:
    both handles are compressed (a once-punctured closed manifold).
    """

    genus: int
    boundary_genus: int
    word: TwistWord

    def __post_init__(self):
        if self.genus != 2 or self.boundary_genus not in (0, 1):
            raise DescError("only genus-2 compressions to boundary genus 0 or 1")
        if self.word.genus != 2:
            raise DescError("compression word must be a genus-2 word")

    def __str__(self):
        return f"bounded:{self.genus}:{self.boundary_genus}:{self.word}"


@dataclass(frozen=True)
class Double:
    half: BoundedHeegaard

    def __post_init__(self):
        if not isinstance(self.half, BoundedHeegaard):
            raise DescError("double requires a bounded piece")

    def __str__(self):
        return f"double:({self.half})"


ManifoldDesc = LensSurgery | HeegaardGluing | MappingTorus | ConnectedSum | Double | BoundedHeegaard

S3 = LensSurgery(1)


def is_closed(desc: ManifoldDesc) -> bool:
    if isinstance(desc, BoundedHeegaard):
        return False
    if isinstance(desc, ConnectedSum):
        return is_closed(desc.left) and is_closed(desc.right)
    return True


def parse_desc(text: str) -> ManifoldDesc:
    """Compact syntax: lens:5, s3, heegaard:1:b^3, mtorus:2:c1*s,
    bounded:2:0:WORD, sum:(D1),(D2), double:(D)."""
    text = text.strip()
    if text.lower() in ("s3", "s^3"):
        return S3
    if text.startswith("sum:"):
        inner = text[4:]
        parts = _split_parenthesized(inner)
        if len(parts) != 2:
            raise DescError(f"sum needs two parenthesized pieces: {text!r}")
        return ConnectedSum(parse_desc(parts[0]), parse_desc(parts[1]))
    if text.startswith("double:"):
        parts = _split_parenthesized(text[7:])
        if len(parts) != 1:
            raise DescError(f"double needs one parenthesized piece: {text!r}")
        return Double(parse_desc(parts[0]))
    head, _, rest = text.partition(":")
    if head == "lens":
        return LensSurgery(_desc_int(rest, text))
    if head in ("heegaard", "mtorus", "bounded"):
        fields = 3 if head == "bounded" else 2
        bits = rest.split(":", fields - 1)
        if len(bits) != fields:
            raise DescError(f"{head} needs {fields} ':'-separated fields: {text!r}")
        genus = _desc_int(bits[0], text)
        word = parse_word(genus, bits[-1])
        if head == "bounded":
            return BoundedHeegaard(genus, _desc_int(bits[1], text), word)
        cls = HeegaardGluing if head == "heegaard" else MappingTorus
        return cls(genus, word)
    raise DescError(f"cannot parse manifold description {text!r}")


def _desc_int(field, text) -> int:
    if isinstance(field, (int, str)) and re.fullmatch(r"\s*[+-]?\d+\s*", str(field)):
        return int(field)  # not a float, which int() would truncate
    raise DescError(f"expected an integer, got {field!r}: {text!r}")


def _split_parenthesized(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            if depth:
                cur.append(ch)
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth:
                cur.append(ch)
            else:
                parts.append("".join(cur))
                cur = []
        elif depth:
            cur.append(ch)
        elif ch not in ", ":
            raise DescError(f"unexpected {ch!r} between pieces")
    if depth:
        raise DescError("unbalanced parentheses")
    return parts


def desc_to_json(desc: ManifoldDesc) -> dict:
    if isinstance(desc, LensSurgery):
        return {"kind": "lens", "b": desc.b}
    if isinstance(desc, HeegaardGluing):
        return {"kind": "heegaard", "genus": desc.genus, "word": str(desc.word)}
    if isinstance(desc, MappingTorus):
        return {"kind": "mappingTorus", "genus": desc.genus, "word": str(desc.word)}
    if isinstance(desc, ConnectedSum):
        return {"kind": "sum", "left": desc_to_json(desc.left), "right": desc_to_json(desc.right)}
    if isinstance(desc, Double):
        return {"kind": "double", "half": desc_to_json(desc.half)}
    if isinstance(desc, BoundedHeegaard):
        return {
            "kind": "bounded",
            "genus": desc.genus,
            "boundaryGenus": desc.boundary_genus,
            "word": str(desc.word),
        }
    raise DescError(f"unknown description {desc!r}")


def desc_from_json(doc: dict) -> ManifoldDesc:
    """Inverse of desc_to_json; a malformed document raises DescError."""
    try:
        kind = doc.get("kind")
        if kind == "lens":
            return LensSurgery(_desc_int(doc["b"], doc))
        if kind in ("heegaard", "mappingTorus", "bounded"):
            g = _desc_int(doc["genus"], doc)
            word = parse_word(g, doc["word"])
            if kind == "bounded":
                return BoundedHeegaard(g, _desc_int(doc["boundaryGenus"], doc), word)
            return (HeegaardGluing if kind == "heegaard" else MappingTorus)(g, word)
        if kind == "sum":
            return ConnectedSum(desc_from_json(doc["left"]), desc_from_json(doc["right"]))
        if kind == "double":
            return Double(desc_from_json(doc["half"]))
    except (AttributeError, KeyError, TypeError) as exc:  # not an object, a field missing or mistyped
        raise DescError(f"malformed description document {doc!r}: {exc!r}") from None
    raise DescError(f"unknown kind {kind!r}")


# -- fundamental groups ------------------------------------------------------


def _rewrite_to_cores(word) -> tuple[int, ...]:
    """Image of a surface-group word in pi1(handlebody): kill b_i, a_i -> x_i."""
    core = {1: 1, -1: -1, 3: 2, -3: -2}
    return free_reduce(tuple(core[x] for x in word if x in core))


def presentation(desc: ManifoldDesc) -> GroupPresentation:
    if isinstance(desc, LensSurgery):
        return GroupPresentation(1, ((1,) * abs(desc.b),) if desc.b else ((),))
    if isinstance(desc, HeegaardGluing):
        if desc.genus == 1:
            W = h1_action(desc.word)
            k = abs(W[1][0])
            return GroupPresentation(1, ((1,) * k if k else (),))
        phi = pi1_action(desc.word)
        return GroupPresentation(2, tuple(_rewrite_to_cores(phi[m]) for m in (2, 4)))
    if isinstance(desc, MappingTorus):
        if desc.genus == 1:
            W = h1_action(desc.word)
            # <x, y, t | [x,y], t x t^-1 = phi(x), t y t^-1 = phi(y)>
            x, y, t = 1, 2, 3
            rels = [(x, y, -x, -y)]
            images = [
                _gen_power(x, W[0][0]) + _gen_power(y, W[1][0]),
                _gen_power(x, W[0][1]) + _gen_power(y, W[1][1]),
            ]
            for g, img in zip((x, y), images):
                rels.append(free_reduce((t, g, -t) + free_inverse(img)))
            return GroupPresentation(3, tuple(rels))
        phi = pi1_action(desc.word)
        t = 5
        rels = [SURFACE_RELATOR]
        for g in (1, 2, 3, 4):
            rels.append(free_reduce((t, g, -t) + free_inverse(phi[g])))
        return GroupPresentation(5, tuple(rels))
    if isinstance(desc, ConnectedSum):
        lp = presentation(desc.left)
        rp = presentation(desc.right)
        shifted = _shifted(rp.relators, lp.num_generators)
        return GroupPresentation(lp.num_generators + rp.num_generators, lp.relators + shifted)
    if isinstance(desc, BoundedHeegaard):
        return _bounded_presentation(desc)
    if isinstance(desc, Double):
        return _double_presentation(desc.half)
    raise DescError(f"no presentation for {desc!r}")


def _gen_power(g: int, k: int) -> tuple[int, ...]:
    return (g,) * k if k >= 0 else (-g,) * (-k)


def _shifted(relators, n: int) -> tuple[tuple[int, ...], ...]:
    """The relators with every generator index moved up by n."""
    return tuple(tuple(x + n if x > 0 else x - n for x in rel) for rel in relators)


def _bounded_presentation(desc: BoundedHeegaard) -> GroupPresentation:
    """pi1 of the compression-body gluing.

    The handlebody side kills the twisted meridian images; the compression
    body kills its own compressed meridians (b2, plus b1 when the boundary
    is a sphere).  Generators a1, b1, a2, b2 -> 1..4.
    """
    phi = pi1_action(desc.word)
    rels = [SURFACE_RELATOR, phi[2], phi[4]]
    rels.append((4,))
    if desc.boundary_genus == 0:
        rels.append((2,))
    return GroupPresentation(4, tuple(rels))


def _double_presentation(half: BoundedHeegaard) -> GroupPresentation:
    base = _bounded_presentation(half)
    n = base.num_generators
    rels = list(base.relators + _shifted(base.relators, n))
    if half.boundary_genus == 1:
        # glue the boundary tori by the identity: a1 = a1', b1 = b1'
        rels.append((1, -(1 + n)))
        rels.append((2, -(2 + n)))
    return GroupPresentation(2 * n, tuple(rels))


# -- homology ----------------------------------------------------------------


def homology_h1(pres: GroupPresentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients d1 | d2 | ...)."""
    n = pres.num_generators
    rows = []
    for rel in pres.relators:
        row = [0] * n
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    if not rows:
        return n, ()
    diag = linalg.snf_diagonal(rows)
    torsion = tuple(d for d in diag if d > 1)
    rank = n - len(diag)
    return rank, torsion


def homology_of(desc: ManifoldDesc) -> tuple[int, tuple[int, ...]]:
    return homology_h1(presentation(desc))


def format_homology(rank: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def h1_order(desc: ManifoldDesc) -> int:
    """|H_1(M, Z)|; raises NotQHSError when b_1 > 0."""
    rank, torsion = homology_of(desc)
    if rank:
        raise NotQHSError(f"b_1 = {rank} > 0 for {desc}")
    out = 1
    for d in torsion:
        out *= d
    return out


# -- Dijkgraaf-Witten invariants --------------------------------------------


_HOM_CHUNK = 1 << 12  # candidate assignments evaluated per numpy batch
# parents whose runs and tails are evaluated at once, in whole batches.  On
# the Z/40 CI count (levels up to 2.56 million parents, one BLAS thread)
# blocks of 2^11, 2^12, 2^14, 2^16 and 2^18 parents took 2.67, 2.62, 2.52,
# 2.53 and 2.89 s at 41, 41, 44, 56 and 97 MB peak RSS, against 5.35 s and
# 41 MB for one batch of 102 parents at a time.
_HOM_BLOCK = 1 << 14


def _runs(rel: tuple[int, ...], s: int) -> list:
    """rel cut at its letters +-s: those letters as ints, and each maximal
    run of lower letters between them as a tuple."""
    out: list = []
    for x in rel:
        if abs(x) == s:
            out.append(x)
        elif out and isinstance(out[-1], tuple):
            out[-1] += (x,)
        else:
            out.append((x,))
    return out


def hom_count(pres: GroupPresentation, G: FiniteGroupTable, budget: int = 2_000_000) -> int:
    """Exhaustive count of homomorphisms, one generator at a time.

    Stage s extends each assignment of x_1 .. x_{s-1} that satisfies the
    relators checkable so far by every value of x_s, and keeps the rows that
    satisfy the relators whose highest letter is x_s, a batch of
    _HOM_CHUNK // |G| parents at a time.  Such a relator is cut at its
    letters +-x_s: each run of lower letters between them is evaluated once
    per parent row and broadcast to its |G| candidates, and a trailing run
    R is not multiplied in: the value before it is compared with R^-1.
    Runs and tails are evaluated for a block of whole batches, about
    _HOM_BLOCK parents, at once and sliced per batch: a batch of 102
    parents (|G| = 40) is too short to pay a numpy call per letter, and a
    whole level of millions of parents too large to hold once per run.
    Values are scaled by |G| on one flat table mul[a*|G| + b] =
    (a*b)*|G|, so a letter g costs one add and one gather,
    acc = mul[acc + g].  Levels are stored as uint8 while |G| <= 256; a
    block widens only its parents' columns to intp.  Stages after the last
    relator multiply the count by |G|.  The node count is that of a
    depth-first search with relator pruning: one root plus the survivors of
    every stage.  Raises BudgetExceededError as soon as it exceeds the
    budget; no partial counts are ever returned.
    """
    n, order = pres.num_generators, G.order
    # relators become checkable once all their letters are assigned
    by_stage: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for rel in pres.relators:
        by_stage[max((abs(x) for x in rel), default=0)].append(rel)
    last = max((s for s in range(1, n + 1) if by_stage[s]), default=0)
    dtype = np.uint8 if order <= 256 else np.intp
    mul, inverse = (G.table * order).ravel(), G.inverse
    top = np.arange(order, dtype=np.intp)  # x_s over one parent's candidates
    one, nodes = G.identity * order, 0

    def visit(k: int) -> None:
        nonlocal nodes
        nodes += k
        if nodes > budget:
            raise BudgetExceededError(f"homomorphism search exceeded {budget} nodes")

    def product(word, values):  # the value of word, scaled by |G|
        acc = one
        for x in word:
            acc = mul[acc + values[x]]
        return acc

    visit(1)
    level = np.zeros((1, 0), dtype=dtype)
    per = max(1, _HOM_CHUNK // order)
    span = per * max(1, _HOM_BLOCK // per)
    for s in range(1, last + 1):
        rels = [_runs(rel, s) for rel in by_stage[s]]
        tails = [free_inverse(r.pop()) if isinstance(r[-1], tuple) else () for r in rels]
        runs = {seg for segments in rels for seg in segments if isinstance(seg, tuple)}
        # survivors cannot outrun the budget by more than one batch
        kept = np.empty((min(len(level) * order, budget - nodes + per * order), s), dtype=dtype)
        filled = 0
        for first in range(0, len(level), span):
            block = level[first : first + span]
            cols = np.ascontiguousarray(block.T, dtype=np.intp)
            values = dict(zip(range(1, s), cols))
            values.update(zip(range(-1, -s, -1), inverse[cols]))
            # each run and tail once per parent of the block, as a column
            # broadcast to the parent's |G| candidates
            run_at = {seg: (product(seg, values) // order)[:, None] for seg in runs}
            tail_at = [np.broadcast_to(product(t, values), len(block))[:, None] for t in tails]
            for start in range(0, len(block), per):
                parents, batch = block[start : start + per], slice(start, start + per)
                got = {s: top, -s: inverse, **{seg: v[batch] for seg, v in run_at.items()}}
                keep = np.ones((len(parents), order), dtype=bool)  # parent x x_s
                for segments, tail in zip(rels, tail_at):
                    acc = one
                    for seg in segments:
                        acc = mul[acc + got[seg]]
                    keep &= acc == tail[batch]
                idx = np.flatnonzero(keep)
                rows = kept[filled : filled + len(idx)]
                rows[:, :-1], rows[:, -1] = parents[idx // order], idx % order
                filled += len(idx)
                visit(len(idx))
        level = kept[:filled]
    count = len(level)
    for _ in range(last, n):
        count *= order
        visit(count)
    return count


def dw_invariant(desc: ManifoldDesc, G: FiniteGroupTable, budget: int = 2_000_000) -> Fraction:
    """Z_G(M) = |Hom(pi1(M), G)| / |G| as an exact rational."""
    if not is_closed(desc):
        raise DescError("Dijkgraaf-Witten invariant requires a closed manifold")
    return Fraction(hom_count(presentation(desc), G, budget), G.order)


# -- genus-1 Dijkgraaf-Witten TQFT (two-oracle route) -------------------------


class DwTorusTheory:
    """The genus-1 Dijkgraaf-Witten theory: commuting pairs mod conjugation,
    mapping classes acting through their SL2(Z) image.

    A pair (x, y) is keyed x*|G| + y; a class is its least key, so the
    classes are sorted as the pairs they stand for.
    """

    def __init__(self, G: FiniteGroupTable):
        self.G = G
        T, n = G.table, G.order
        x, y = np.nonzero(T == T.T)  # the commuting pairs
        key = x * n + y
        for g in range(n):  # a running minimum keeps memory O(|G|^2)
            conj = T[T[g], G.inverse[g]]  # a -> g a g^-1
            np.minimum(key, conj[x] * n + conj[y], out=key)
        self.classes, index = np.unique(key, return_inverse=True)
        self.class_of = np.full(n * n, -1)  # pair key -> class index
        self.class_of[x * n + y] = index
        self.powers = np.empty((G.exponent, n), dtype=np.intp)  # [k, a] = a^k
        self.powers[0] = G.identity
        for k in range(1, G.exponent):
            self.powers[k] = T[self.powers[k - 1], np.arange(n)]

    def dim(self) -> int:
        return len(self.classes)

    def act(self, W, x, y):
        """Action of an SL2(Z) matrix on commuting pairs: r -> r . phi, as
        the pair keys (x^W00 y^W10, x^W01 y^W11)."""
        T, P, e = self.G.table, self.powers, self.G.exponent
        nx = T[P[W[0][0] % e, x], P[W[1][0] % e, y]]
        ny = T[P[W[0][1] % e, x], P[W[1][1] % e, y]]
        return nx * self.G.order + ny

    def permutation(self, word: TwistWord) -> tuple[int, ...]:
        """Permutation matrix (as index map) of the word on the class basis."""
        x, y = np.divmod(self.classes, self.G.order)
        return tuple(self.class_of[self.act(h1_action(word), x, y)].tolist())

    def trace(self, word: TwistWord) -> int:
        return int(np.count_nonzero(np.equal(self.permutation(word), range(self.dim()))))

    def pairing_invariant(self, word: TwistWord) -> Fraction:
        """<handlebody, rho(word) handlebody> with class-size weights."""
        G = self.G
        img = self.act(h1_action(word), G.identity, np.arange(G.order))
        return Fraction(int(np.count_nonzero(img // G.order == G.identity)), G.order)


def dw_invariant_tqft(desc: ManifoldDesc, G: FiniteGroupTable) -> Fraction:
    """Genus-1 Dijkgraaf-Witten via the TQFT axioms (trace / pairing);
    agrees exactly with the homomorphism count."""
    theory = DwTorusTheory(G)
    if isinstance(desc, MappingTorus) and desc.genus == 1:
        return Fraction(theory.trace(desc.word))
    if isinstance(desc, HeegaardGluing) and desc.genus == 1:
        return theory.pairing_invariant(desc.word)
    if isinstance(desc, LensSurgery):
        word = parse_word(1, f"b^{desc.b}") if desc.b else empty_word(1)
        return theory.pairing_invariant(word)
    raise DescError("TQFT route implemented for genus-1 descriptions only")


# -- boundary vectors of compression pieces ------------------------------------


@lru_cache(maxsize=None)
def surviving_indices(p: int, boundary_genus: int) -> tuple[int, ...]:
    """Dumbbell coordinates that survive the compression projection.

    Compressing the right handle kills every (a, c, b) with b != 0
    (admissibility then forces c = 0), which leaves (n, 0, 0) for n in
    the genus-1 basis order; compressing both handles keeps only the
    vacuum coordinate.
    """
    if boundary_genus == 1:
        basis = genus2_basis(p)
        return tuple(basis.index((n, 0, 0)) for n in spectral_color_order(p))
    if boundary_genus == 0:
        return (vacuum_index(2, p),)
    raise DescError("boundary genus must be 0 or 1")


def boundary_vector(desc: BoundedHeegaard, R) -> tuple:
    """Compression projection of rho(word) applied to the handlebody vector,
    over R: p exactly, or a ResidueSpec for its reduction mod J.  The
    coordinates are returned as a tuple, CycElems exactly and FqElems over
    a ResidueSpec.

    Each compressed handle contributes a factor eta^{-1} in the TQFT
    normalization (so capping the result reproduces the closed Heegaard
    value exactly).  Boundary genus 1 coordinates are indexed by the
    genus-1 basis order.
    """
    S = scalar_ring(R)
    column = S.column(rho_apply(desc.word, R, vacuum_vector(2, R)))
    scale = eta_inv(R) ** (2 - desc.boundary_genus)
    return tuple(scale * column[i] for i in surviving_indices(S.p, desc.boundary_genus))


def compressed_walks(desc: BoundedHeegaard, r, words):
    """Walks of regluings over F_q: walk(picks) -> (rows, vanishing).

    Row t of rows is rho(desc.word) rho(words[picks[t, 0]]) ...
    rho(words[picks[t, -1]]) e_vac mod J over the ResidueSpec r, for a
    (batch, steps) index array picks; vanishing[t] says whether it is
    zero at every surviving index.  A walk of no steps gives the base
    word's vacuum column.  The matrices rho(w, r) are built once;
    linalg.fq_walk carries the batch of vacuum vectors right to left
    through each row's picks (each step multiplies every row by its own
    pick's matrix, in the layout fq_walk picks from the shapes), then
    linalg.fq_matmul applies the base word's matrix, both exactly in
    linalg._product_dtype's dtype.
    """
    mats = np.array([rho(w, r) for w in words])
    base_t = rho(desc.word, r).T
    e_vac = vacuum_vector(2, r)
    keep = list(surviving_indices(r.p, desc.boundary_genus))

    def walk(picks):
        rows = linalg.fq_matmul(linalg.fq_walk(mats, picks, e_vac, r.q), base_t, r.q)
        return rows, ~rows[:, keep].any(axis=1)

    return walk


# -- SO(3) quantum invariants ------------------------------------------------


@lru_cache(maxsize=None)
def _lens_rt(p: int, b: int) -> CycElem:
    """RT of the lens surgery on the b-framed unknot, cached: S^3 is
    lens:1, an obstruction computes its target's RT, and re-derivation
    computes it again."""
    acc = CycElem.zero(p)
    for n in colors(p):
        acc = acc + quantum_dim(p, n) ** 2 * twist(p, n) ** b
    val = eta(p) ** 2 * acc
    if b > 0:
        val = val * kappa_inv(p)
    elif b < 0:
        val = val * kappa(p)
    return val


def rt_closed(desc: ManifoldDesc, p: int) -> CycElem:
    """SO(3) invariant at level p, defined up to a power of kappa(p).

    Heegaard pairing, mapping-torus trace, lens surgery formula,
    connected sums via division by eta, doubles via the Hermitian norm
    of the boundary vector.
    """
    if isinstance(desc, LensSurgery):
        return _lens_rt(p, desc.b)
    if isinstance(desc, MappingTorus):
        return rho(desc.word, p).trace()
    if isinstance(desc, HeegaardGluing):
        v = vacuum_index(desc.genus, p)
        val = rho_apply(desc.word, p, vacuum_vector(desc.genus, p)).entries[v][0]
        if desc.genus == 2:
            val = val * eta_inv(p)
        return val
    if isinstance(desc, ConnectedSum):
        return rt_closed(desc.left, p) * rt_closed(desc.right, p) * eta_inv(p)
    if isinstance(desc, Double):
        # RT(DM) = ||RT(M)||^2: genus-1 boundary pairing is the identity,
        # the sphere pairing weighs the ball vector by eta
        acc = CycElem.zero(p)
        for x in boundary_vector(desc.half, p):
            acc = acc + x * x.conjugate()
        if desc.half.boundary_genus == 0:
            acc = acc * eta(p)
        return acc
    raise DescError(f"rt_closed needs a closed description, got {desc!r}")


# -- Murakami congruence -----------------------------------------------------


def murakami_residue(x: CycElem) -> tuple[int, int]:
    """Image of an integral element in F_p[w]/(w^2+1) under zeta -> w.

    This is reduction modulo (the ideal generated by) u - 1 = zeta^4 - 1;
    returns (a, b) meaning a + b w.
    """
    if x.e != 0:
        raise IntegralityError("element has a p-denominator")
    p = x.p
    a = b = 0
    for k, c in enumerate(x.coeffs):
        r = k % 4
        if r == 0:
            a += c
        elif r == 1:
            b += c
        elif r == 2:
            a -= c
        else:
            b -= c
    return a % p, b % p


def _w_multiple(k: int, x: int, p: int) -> tuple[int, int]:
    """Residue pair of w^k * x for an integer x."""
    return ((x % p, 0), (0, x % p), (-x % p, 0), (0, -x % p))[k % 4]


# the powers w^0 .. w^3, reported as complex units
_W_SIGNS = (1, 1j, -1, -1j)


def murakami_check(desc: ManifoldDesc, p: int) -> dict:
    """Check H. Murakami's congruence RT/eta = eps * |H_1|^((p-3)/2) mod (u-1).

    For a rational homology sphere the integrally-normalized invariant
    RT/eta reduces mod (u - 1) to eps * |H_1|^((p-3)/2), which is the
    Legendre form (|H_1|/p) * |H_1|^-1 when p does not divide |H_1|. The
    phase eps is a power of the residue of kappa(p), the ambiguity of
    closed invariants; kappa is a power of zeta, so eps is a power of w.

    Derivation on lens surgeries: with A = -u^((p+1)/2), b' = b^-1 mod p
    and (b/p) the Legendre symbol, completing the square in the Gauss sum
    gives, for b > 0 and p not dividing b,

        RT/eta(L(b,1)) = (-1)^(b-1) A^(1-b) (b/p) (u^(-2b') - 1)/(u^-2 - 1),

    and mod (u - 1) A goes to -1 and the quotient to b', leaving
    (b/p) b^-1 = b^((p-3)/2) with eps = 1.

    Returns {'ok', 'sign', 'residue', 'h1'}: residue is (a, b) meaning
    a + b w, and sign is eps as one of 1, -1, 1j, -1j (1j standing for w),
    or 0 when no phase matches.
    """
    order = h1_order(desc)  # raises NotQHSError when b_1 > 0
    val = rt_closed(desc, p).exact_div(eta(p))
    if val.e != 0:
        raise IntegralityError("RT/eta does not clear its p-denominator")
    residue = murakami_residue(val)
    expected = pow(order, (p - 3) // 2, p)
    kappa_res = murakami_residue(kappa(p))
    step = next(k for k in range(4) if _w_multiple(k, 1, p) == kappa_res)
    for k in sorted({step * j % 4 for j in range(4)}):
        if residue == _w_multiple(k, expected, p):
            return {"ok": True, "sign": _W_SIGNS[k], "residue": residue, "h1": order}
    return {"ok": False, "sign": 0, "residue": residue, "h1": order}
