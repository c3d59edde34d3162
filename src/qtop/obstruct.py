"""Embedding obstructions from quantum invariants.

The mechanism: a compression body kills every boundary-basis coordinate
whose compressed-handle color is nonzero, so the invariant vector of a
bounded manifold N = C u_w H is the compression projection of rho(w)
applied to the handlebody vector (manifolds.boundary_vector).  If that
vector vanishes mod a maximal ideal J with residue field F_q while a
closed target M has RT_p(M) nonzero mod J, the FKB ideal of N is
contained in J but that of M is not, and N cannot embed in M.

Soundness axiom recorded in every certificate: closed invariants of
manifolds containing N factor through the pairing with N's boundary
vector, so vector vanishing mod J forces I_p(N) into J.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cyclotomic import (
    CycElem,
    CycIdeal,
    ResidueSpec,
    RingUsageError,
    residue_primes,
)
from .manifolds import (
    BoundedHeegaard,
    DescError,
    ManifoldDesc,
    boundary_vector,
    compressed_walks,
    desc_to_json,
    is_closed,
    rt_closed,
)
from .linalg import draw_picks
from .mcg import GENUS_CURVES, SUBGROUP_WORDS, TwistWord, empty_word, letter, word_in_subgroup, word_product
from .rep import rho_apply, vacuum_vector

SOUNDNESS_AXIOM = (
    "vector vanishing mod J implies I_p(N) <= J: closed invariants of "
    "manifolds containing N factor through the pairing with N's vector"
)


def fkb_ideal_closed(desc: ManifoldDesc, p: int) -> CycIdeal:
    """Ideal generated by the closed invariant (unit phases are harmless)."""
    return CycIdeal.from_generators([rt_closed(desc, p)])


@dataclass(frozen=True)
class InnerIdealReport:
    ideal: CycIdeal
    budget: int
    stabilized: bool  # equal to the ideal at budget - 1


def fkb_ideal_inner(desc: BoundedHeegaard, p: int, budget: int) -> InnerIdealReport:
    """Inner approximation of the FKB ideal of a genus-1-boundary piece.

    Generators are the closed invariants of solid-torus fillings glued by
    all genus-1 twist words up to the length cap; monotone nondecreasing
    in the budget.  Never used for obstruction verdicts.
    """
    if desc.boundary_genus != 1:
        raise DescError("inner ideals are computed for genus-1 boundaries")
    if budget < 1:
        raise DescError("budget must be >= 1")
    bv = boundary_vector(desc, p)
    values = [_filling_value(bv, w, p) for w in _genus1_words_upto(budget)]
    # the words up to budget - 1 are a prefix of those up to budget
    prev = CycIdeal.from_generators(values[: len(_genus1_words_upto(budget - 1))])
    ideal = CycIdeal.from_generators(values)
    return InnerIdealReport(ideal, budget, prev == ideal)


def _genus1_words_upto(length: int):
    """All distinct genus-1 words of letter length <= length, in the order
    they first appear in the free enumeration.  A word's children depend on
    its letters alone, so only words not seen before are extended."""
    letters = [letter(1, c, e) for c in GENUS_CURVES[1] for e in (1, -1)]
    unique = [empty_word(1)]
    frontier = unique[:]
    seen = {empty_word(1).letters}
    for _ in range(length):
        nxt = []
        for w in frontier:
            for x in letters:
                nw = w * x
                if nw.letters not in seen:
                    seen.add(nw.letters)
                    nxt.append(nw)
        unique.extend(nxt)
        frontier = nxt
    return unique


def _filling_value(bv: tuple, w: TwistWord, p: int) -> CycElem:
    """Closed invariant of the filling glued by w: <bv, rho(w) e_vac>."""
    col = rho_apply(w, p, vacuum_vector(1, p)).entries
    acc = CycElem.zero(p)
    for x, (y,) in zip(bv, col):
        acc = acc + x * y
    return acc


# -- obstruction reports -----------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    target: ManifoldDesc          # M, the ambient candidate
    candidate: ManifoldDesc       # N, the piece that may not embed
    p: int
    verdict: str                  # OBSTRUCTED | NO_OBSTRUCTION_FOUND
    q_used: int | None
    certificate: tuple[dict, ...]  # one entry per residue prime tried

    def to_json(self) -> dict:
        return {
            "target": desc_to_json(self.target),
            "candidate": desc_to_json(self.candidate),
            "p": self.p,
            "q": self.q_used,
            "verdict": self.verdict,
            "certificate": list(self.certificate),
            "soundness": SOUNDNESS_AXIOM,
        }


def _candidate_residues(desc: ManifoldDesc, p: int, r: ResidueSpec) -> list[int]:
    if isinstance(desc, BoundedHeegaard):
        return [x.v for x in boundary_vector(desc, r)]
    if is_closed(desc):
        return [r.reduce(rt_closed(desc, p))]
    raise DescError(f"cannot form a vector for {desc!r}")


def obstruct_embedding(
    candidate: ManifoldDesc,
    target: ManifoldDesc,
    p: int,
    q_candidates: list[int] | None = None,
) -> ObstructionReport:
    """Soundly obstruct an embedding of `candidate` into `target`.

    For each residue prime q = 1 mod 4p: OBSTRUCTED at the first q where
    the target's invariant has nonzero residue while every coordinate of
    the candidate's vector vanishes.  The verdict is a pure function of
    the recorded residues.
    """
    if not is_closed(target):
        raise DescError("the ambient manifold must be closed")
    qs = q_candidates if q_candidates is not None else residue_primes(p)
    if not qs:
        raise DescError("need at least one residue prime")
    rt_target = rt_closed(target, p)
    cert = []
    verdict, q_used = "NO_OBSTRUCTION_FOUND", None
    for q in qs:
        r = ResidueSpec.for_primes(p, q)
        m_res = r.reduce(rt_target)
        n_vec = _candidate_residues(candidate, p, r)
        obstructed = m_res != 0 and all(x == 0 for x in n_vec)
        cert.append(
            {"q": q, "root": r.root, "mResidue": m_res, "nVector": n_vec, "obstructed": obstructed}
        )
        if obstructed and verdict == "NO_OBSTRUCTION_FOUND":
            verdict, q_used = "OBSTRUCTED", q
            break
    return ObstructionReport(target, candidate, p, verdict, q_used, tuple(cert))


def rederive_report(report: ObstructionReport) -> bool:
    """Re-run obstruct_embedding on the recorded primes and compare whole
    reports: roots, residues, entry order, verdict and q_used.  A
    certificate with no entries, or a recorded q that is not a prime
    1 mod 4p, raises the error obstruct_embedding raises."""
    qs = [entry["q"] for entry in report.certificate]
    return obstruct_embedding(report.candidate, report.target, report.p, qs) == report


# -- randomized search for vanishing gluings ---------------------------------


# samples twist_search draws and walks together; results do not depend on it
SEARCH_BATCH = 32
SEARCH_WALK_LENGTH = 48  # steps per twist_search sample


@dataclass(frozen=True)
class TwistSearchResult:
    """Outcome of twist_search.  distinct_images counts the distinct vacuum
    columns rho(base f) e_vac mod J over the samples drawn, not distinct
    matrices."""

    found: bool
    word: TwistWord | None        # the subgroup element f (None if not found)
    full_word: TwistWord | None   # base word composed with f
    certificate: str | None
    samples: int
    distinct_images: int


def twist_search(
    desc: BoundedHeegaard,
    p: int,
    r: ResidueSpec,
    budget: int = 2000,
    seed: int = 0,
    n: int = 3,
    k: int = 1,
) -> TwistSearchResult:
    """Search Gamma_k I cap T_n for f with vanishing compressed vector mod J.

    Samples products of the mcg.SUBGROUP_WORDS certified subgroup words
    and their inverses; each sample is a fresh walk of SEARCH_WALK_LENGTH
    steps whose picks come from one random.Random(seed), as one
    rng.choice per step would draw them.  The empty word is tried first,
    as a walk of no steps.  Then the samples are drawn in batches of
    SEARCH_BATCH, each batch's picks in one linalg.draw_picks call, and
    walked by manifolds.compressed_walks, the kernel montecarlo_vanishing
    shares; the first vanishing row in sample order wins.  Drawing picks
    past it touches only the local rng, so the result is that of drawing
    one sample at a time.  Deterministic in (seed, budget).
    """
    if budget < 0:
        raise DescError("budget must be >= 0")
    if r.p != p:
        raise RingUsageError("word and residue spec use different p")
    rng = random.Random(seed)
    drawn = [word_in_subgroup(n, k, seed * 1009 + j + 1) for j in range(SUBGROUP_WORDS)]
    words = [cw.word for cw in drawn] + [cw.word.inverse() for cw in drawn]
    cert_terms = [cw.certificate for cw in drawn] + [f"({cw.certificate})^-1" for cw in drawn]
    walk = compressed_walks(desc, r, words)

    # empty word first: degenerate setups succeed immediately
    if walk(np.zeros((1, 0), dtype=np.intp))[1][0]:
        return TwistSearchResult(True, empty_word(2), desc.word, "1", 0, 1)

    images = set()
    for start in range(0, budget, SEARCH_BATCH):
        size = min(SEARCH_BATCH, budget - start)
        picks = draw_picks(rng, len(words), size * SEARCH_WALK_LENGTH).reshape(size, -1)
        rows, vanishing = walk(picks)
        hits = np.flatnonzero(vanishing)
        end = int(hits[0]) + 1 if len(hits) else size  # the rows scanned: up to the first hit
        images.update(map(tuple, rows[:end].tolist()))
        if len(hits):
            chosen = picks[end - 1].tolist()
            f = word_product(2, [words[i] for i in chosen])
            certificate = " . ".join(cert_terms[i] for i in chosen)
            return TwistSearchResult(True, f, desc.word * f, certificate, start + end, len(images))
    return TwistSearchResult(False, None, None, None, budget, len(images))
