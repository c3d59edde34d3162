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

Every variant has a derivable fundamental-group presentation, built at
genus 1 and 2 alike from mcg.pi1_action and mcg.SURFACES; closed
variants have Dijkgraaf-Witten invariants (homomorphisms counted on the
presentation, or for genus-2 gluings and mapping tori on the states
Hom(pi1 Sigma_2, G) of DwTheory; two independent ways at genus 1, where
DwTheory(G, 1) is the second) and SO(3) quantum invariants (defined up
to a declared anomaly phase, a power of the Gauss-sum unit kappa).  A compression piece has a boundary vector, the coordinates of
rho(word) e_vac that the compression keeps (surviving_indices), which
compressed_walks reads mod J along batches of regluing walks; a double's
invariant is its half's vector's Hermitian norm.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .cyclotomic import CycElem, eta, eta_inv, power
from .groups import FiniteGroupTable
from .mcg import (
    SURFACES,
    TwistWord,
    _twist_auto,
    abelianize,
    empty_word,
    free_inverse,
    free_reduce,
    h1_action,
    letter,
    parse_word,
    pi1_action,
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


def _rewrite_to_cores(word, meridians) -> tuple[int, ...]:
    """Image of a surface-group word in pi1(handlebody): kill the meridians,
    and number the other generators, the cores, from 1."""
    cores = [g for g in range(1, 2 * len(meridians) + 1) if g not in meridians]
    core = {g: i for i, g in enumerate(cores, 1)}
    return free_reduce(tuple(core[x] if x > 0 else -core[-x] for x in word if abs(x) in core))


def presentation(desc: ManifoldDesc) -> GroupPresentation:
    if isinstance(desc, LensSurgery):
        return GroupPresentation(1, ((1,) * abs(desc.b),) if desc.b else ((),))
    if isinstance(desc, HeegaardGluing):
        # the inner handlebody kills the meridians' images
        meridians = SURFACES[desc.genus][1]
        phi = pi1_action(desc.word)
        rels = tuple(_rewrite_to_cores(phi[m], meridians) for m in meridians)
        return GroupPresentation(desc.genus, rels)
    if isinstance(desc, MappingTorus):
        # <surface generators, t | surface relator, t g t^-1 = phi(g)>
        phi = pi1_action(desc.word)
        t = len(phi) + 1
        rels = [SURFACES[desc.genus][0]]
        rels += [free_reduce((t, g, -t) + free_inverse(w)) for g, w in phi.items()]
        return GroupPresentation(t, tuple(rels))
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


def _shifted(relators, n: int) -> tuple[tuple[int, ...], ...]:
    """The relators with every generator index moved up by n."""
    return tuple(tuple(x + n if x > 0 else x - n for x in rel) for rel in relators)


def _bounded_presentation(desc: BoundedHeegaard) -> GroupPresentation:
    """pi1 of the compression-body gluing.

    The handlebody side kills the twisted meridian images; the compression
    body kills its own compressed meridians (b2, plus b1 when the boundary
    is a sphere).  Generators a1, b1, a2, b2 -> 1..4.
    """
    relator, meridians = SURFACES[2]
    phi = pi1_action(desc.word)
    rels = [relator, *(phi[m] for m in meridians)]
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


def _smith_h1(n: int, rows) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients d1 | d2 | ...) of Z^n modulo the
    integer rows, from their Smith form."""
    diag = linalg.snf_diagonal(rows)
    return n - len(diag), tuple(d for d in diag if d > 1)


def homology_h1(pres: GroupPresentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion coefficients d1 | d2 | ...) of the presentation's
    abelianized relators."""
    n = pres.num_generators
    return _smith_h1(n, [abelianize(rel, n) for rel in pres.relators])


def _h1_relations(desc: ManifoldDesc) -> tuple[int, list[list[int]]]:
    """(n, rows): the abelianized relators of presentation(desc), with each
    twisted generator's class read from the integer action h1_action, so
    no word is spelled out.  Zero rows (surface relators) are left out."""
    if isinstance(desc, LensSurgery):
        return 1, [[desc.b]]
    if isinstance(desc, ConnectedSum):  # the summands' relations on disjoint generators
        (n, top), (m, bottom) = _h1_relations(desc.left), _h1_relations(desc.right)
        return n + m, [r + [0] * m for r in top] + [[0] * n + r for r in bottom]
    if isinstance(desc, Double):  # two copies of the half, as for a sum, then glued
        n, rows = _h1_relations(ConnectedSum(desc.half, desc.half))
        if desc.half.boundary_genus == 1:  # a1 = a1', b1 = b1'
            rows += [[1, 0, 0, 0, -1, 0, 0, 0], [0, 1, 0, 0, 0, -1, 0, 0]]
        return n, rows
    if isinstance(desc, HeegaardGluing):  # the meridians' images on the cores
        M, meridians = h1_action(desc.word), SURFACES[desc.genus][1]
        return desc.genus, [[M[c][m - 1] for c in range(len(M)) if c + 1 not in meridians] for m in meridians]
    if isinstance(desc, MappingTorus):  # g = phi(g), and t is free: Z + coker(M - I)
        M = h1_action(desc.word)
        return len(M) + 1, [[(g == h) - M[h][g] for h in range(len(M))] + [0] for g in range(len(M))]
    if isinstance(desc, BoundedHeegaard):  # the meridians' images, the compressed b2 (and b1)
        M = h1_action(desc.word)
        rows = [[M[h][m - 1] for h in range(4)] for m in SURFACES[2][1]] + [[0, 0, 0, 1]]
        if desc.boundary_genus == 0:
            rows.append([0, 1, 0, 0])
        return 4, rows
    raise DescError(f"no homology for {desc!r}")


def homology_of(desc: ManifoldDesc) -> tuple[int, tuple[int, ...]]:
    """H_1(desc) from one integer relation matrix per description kind;
    homology_h1(presentation(desc)) is the same group, built from words."""
    return _smith_h1(*_h1_relations(desc))


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
    """Z_G(M) = |Hom(pi1(M), G)| / |G| as an exact rational.

    Genus-2 gluings and mapping tori are a pairing and a trace of
    DwTheory(G, 2), under a budget of states; every other description is
    hom_count on the presentation of _mod_exponent(desc, e(G)), under a
    budget of search nodes.
    """
    if not is_closed(desc):
        raise DescError("Dijkgraaf-Witten invariant requires a closed manifold")
    if isinstance(desc, (HeegaardGluing, MappingTorus)) and desc.genus == 2:
        return _tqft_value(_dw_theory(G, 2, budget), desc)
    return Fraction(hom_count(presentation(_mod_exponent(desc, G.exponent)), G, budget), G.order)


def _mod_exponent(desc: ManifoldDesc, e: int) -> ManifoldDesc:
    """desc with every twist exponent and lens coefficient reduced mod e,
    and the letters that reduce to 0 dropped.  Every rho from a free group
    into a group of exponent e has rho . t_c^k = rho . t_c^(k mod e), as
    t_c^k(g) = L^k g R^k, so each relator takes the same value under every
    assignment."""
    if isinstance(desc, LensSurgery):
        return LensSurgery(desc.b % e)
    if isinstance(desc, ConnectedSum):
        return ConnectedSum(_mod_exponent(desc.left, e), _mod_exponent(desc.right, e))
    if isinstance(desc, Double):
        return Double(_mod_exponent(desc.half, e))
    letters = tuple((c, k % e) for c, k in desc.word.letters if k % e)
    return replace(desc, word=TwistWord(desc.genus, letters))


# -- Dijkgraaf-Witten TQFT: states, and mapping classes as index maps ----------


class DwTheory:
    """The Dijkgraaf-Witten theory of G on the closed surface of genus 1 or
    2 (Dijkgraaf and Witten, CMP 1990; Freed and Quinn, CMP 1993).  Its
    states are Hom(pi1 Sigma_g, G), the tuples (a1, b1[, a2, b2]) with
    [a1,b1][a2,b2] = 1 (with [a1,b1] = 1 at genus 1), keyed
    (..(a1|G| + b1)|G| ..)|G| + b_g in the smallest unsigned dtype and
    sorted, with their generator values (values[g], one row per
    generator).  A word acts on them by an index map, state i going to
    state permutation(word)[i], and a mapping torus is a trace, a Heegaard
    gluing a pairing of handlebody states.

    A letter t_c^{+-1} sends rho to rho . t_c^{+-1}: its index map
    evaluates the images mcg._twist_auto(c, +-1) on the states' values by
    table gathers and locates the image keys with np.searchsorted.  The
    map t_c^k is that of t_c^{+-1} raised to |k| by square-and-multiply,
    so no image word spells out a power, and every letter's map is cached,
    as int32 while the states fit.  A budget bounds the number of states,
    which is counted before anything of that size is allocated; Mednykh's
    formula |G|^(2g-1) sum_chi chi(1)^(2-2g) gives |G| k(G) at genus 1
    (k(G) the classes), and 486 for S3, 2 176 for Q8, 5 376 for A4 and
    n^4 for Z/n at genus 2.
    """

    def __init__(self, G: FiniteGroupTable, genus: int, budget: int | None = None):
        """The states, written in key order one value of b_g at a time: each
        head (a1, .., a_g), the first 2g - 1 values, takes the b_g with
        [a_g, b_g] = [a1, b1]^-1 at genus 2, = 1 at genus 1, and its states
        sit in one run of the sorted keys, from the head's offset up, as
        many as it has such b_g."""
        if genus not in SURFACES:
            raise DescError(f"Dijkgraaf-Witten states are built for genus 1 and 2, not {genus}")
        self.G, self.genus = G, genus
        n, T, inv = G.order, G.table, G.inverse
        comm = T[T[T, inv[:, None]], inv[None, :]]  # [a, b] = a b a^-1 b^-1
        # [a1, b1] of the handles before the last, keyed a1|G| + b1: every
        # pair at genus 2, and at genus 1 the key 0 alone, whose [x, x] is 1
        before = comm.ravel()[: n ** (2 * genus - 2)]
        per_value = np.bincount(comm.ravel(), minlength=n)
        count = int(np.bincount(before, minlength=n) @ per_value[inv])
        if budget is not None and count > budget:
            raise BudgetExceededError(f"{count} genus-{genus} states exceed the budget of {budget}")
        self._vdtype = np.min_scalar_type(n - 1)
        self._kdtype = np.min_scalar_type(n ** (2 * genus) - 1)
        self._idtype = np.int32 if count < 2**31 else np.intp
        self._table, self._inverse = T.astype(self._vdtype), inv.astype(self._vdtype)
        prefix, last = np.divmod(np.arange(n ** (2 * genus - 1)), n)
        want = inv[before[prefix]]  # the commutator [a_g, b_g] must take
        # the number of b_g with [a_g, b_g] = want, per head, gives its offset
        solutions = np.bincount((np.arange(n)[:, None] * n + comm).ravel(), minlength=n * n)
        at = np.cumsum(solutions[last * n + want]) - solutions[last * n + want]
        shape = (n,) * (2 * genus - 1)
        heads = np.array(np.unravel_index(np.arange(len(last)), shape), dtype=self._vdtype)
        self.values = np.empty((2 * genus, count), dtype=self._vdtype)
        for b in range(n):
            hit = np.flatnonzero(comm[last, b] == want)
            self.values[:-1, at[hit]] = heads[:, hit]
            self.values[-1, at[hit]] = b
            at[hit] += 1
        self.states = self._keys(self.values)
        self._meridians = np.array(SURFACES[genus][1])[:, None] - 1  # broadcast over rows
        handlebody = self._in_handlebody(np.arange(count))
        self._handlebody = np.flatnonzero(handlebody).astype(self._idtype)
        # each inner automorphism a -> t a t^-1 once: t the least of its coset t Z(G)
        centre = np.flatnonzero((T == T.T).all(axis=1))
        reps = np.flatnonzero(T[:, centre].min(axis=1) == np.arange(n))
        self._inner = T[T[reps], inv[reps, None]].astype(self._vdtype)
        self._maps: dict[tuple[str, int], np.ndarray] = {}

    def _keys(self, values) -> np.ndarray:
        key = values[0].astype(self._kdtype)
        for v in values[1:]:
            key *= self.G.order
            key += v
        return key

    def _value(self, word) -> np.ndarray:
        """The states' values of a word in the generators 1..2g (signed)."""
        acc = None
        for x in word:
            v = self.values[abs(x) - 1]
            v = v if x > 0 else self._inverse[v]
            acc = v if acc is None else self._table[acc, v]
        return acc

    def _in_handlebody(self, rows) -> np.ndarray:
        """Whether the states `rows` send every meridian to 1."""
        return (self.values[self._meridians, rows] == self.G.identity).all(axis=0)

    def _letter(self, curve: str, k: int) -> np.ndarray:
        """The cached index map of t_curve^k on the states."""
        if (curve, k) not in self._maps:
            if abs(k) == 1:
                image = _twist_auto(curve, k)
                keys = self._keys([self._value(w) for w in image.values()])
                out = np.searchsorted(self.states, keys).astype(self._idtype)
            else:
                out = power(self._letter(curve, 1 if k > 0 else -1), abs(k), np.take)
            out.setflags(write=False)
            self._maps[curve, k] = out
        return self._maps[curve, k]

    def dim(self) -> int:
        return len(self.states)

    def permutation(self, word: TwistWord, rows=None) -> np.ndarray:
        """Index map of the word on the states (on the states `rows` only):
        the letters' maps composed left to right with np.take, as
        pi1_action composes their automorphisms."""
        out = np.arange(self.dim(), dtype=self._idtype) if rows is None else rows
        for curve, k in word.letters:
            out = self._letter(curve, k).take(out)
        return out

    def trace(self, word: TwistWord) -> int:
        """|Hom(pi1 M_f, G)| / |G| for the mapping torus of f = word: the
        pairs (rho, t) with rho . f = c_t . rho, c_t the conjugation by t,
        counted once per inner automorphism c_t: each stands for |Z(G)|
        elements t, and |G| = |Z(G)| |Inn(G)|."""
        mapped = self.values[:, self.permutation(word)]
        fixed = sum(np.count_nonzero((mapped == c[self.values]).all(axis=0)) for c in self._inner)
        return fixed // len(self._inner)

    def pairing_invariant(self, word: TwistWord) -> Fraction:
        """<handlebody, rho(word) handlebody>: the handlebody states (every
        meridian sent to 1) that the word keeps handlebody states, over
        |G|."""
        rows = self.permutation(word, self._handlebody)
        return Fraction(int(np.count_nonzero(self._in_handlebody(rows))), self.G.order)


# a process keeps the theories it built, each with its letters' index maps
_dw_theory = lru_cache(maxsize=8)(DwTheory)


def _tqft_value(theory: DwTheory, desc: HeegaardGluing | MappingTorus) -> Fraction:
    if isinstance(desc, MappingTorus):
        return Fraction(theory.trace(desc.word))
    return theory.pairing_invariant(desc.word)


def dw_invariant_tqft(desc: ManifoldDesc, G: FiniteGroupTable) -> Fraction:
    """Genus-1 Dijkgraaf-Witten via the TQFT axioms (trace / pairing) of
    DwTheory(G, 1): the second route, which agrees exactly with the
    homomorphism count."""
    if isinstance(desc, LensSurgery):
        desc = HeegaardGluing(1, letter(1, "b", desc.b) if desc.b else empty_word(1))
    if not isinstance(desc, (HeegaardGluing, MappingTorus)) or desc.genus != 1:
        raise DescError("TQFT route implemented for genus-1 descriptions only")
    return _tqft_value(_dw_theory(G, 1), desc)


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
        col = rho_apply(desc.word, p, vacuum_vector(desc.genus, p))
        val = CycElem.make(p, col.num[:, v, 0].tolist(), col.e)
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
