"""Random walks, exact mixing, hyperplane hitting, and the Monte Carlo
reproduction of the non-embedding probability bound.

A finite matrix group is one sorted array of canonical forms; its exact
walk laws are integer numerators over one common denominator, indexed by
its rows.  Monte Carlo trials carry a batch of vacuum vectors through
mod-q generator matrices, with all randomness drawn up front from one
seed, so results do not depend on how trials are scheduled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import ResidueSpec, RingUsageError, is_prime
from .linalg import draw_picks, fq_dtype, fq_matmul, fq_walk
from .manifolds import BoundedHeegaard, compressed_walks, surviving_indices
from .mcg import SUBGROUP_WORDS, word_in_subgroup
from .rep import rep_dim


class WalkUsageError(ValueError):
    pass


# -- finite matrix groups over F_q -------------------------------------------


def projective_canon(mats, q: int):
    """Scale each matrix of a (k, n, n) stack over F_q so its first nonzero
    entry is 1 (the PGL canon), as int64 residues.

    Computed in fq_dtype(1, q), so the scaling is exact for every q < 2^63;
    one Fermat inverse per distinct leading entry, no table of size q.
    """
    dtype = fq_dtype(1, q)
    mats = np.asarray(mats, dtype=dtype) % q
    flat = mats.reshape(len(mats), -1)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]  # 0 only for a zero matrix
    if not lead.all():
        raise WalkUsageError("zero matrix is not a group element")
    values, where = np.unique(lead, return_inverse=True)
    inv = np.array([pow(int(x), q - 2, q) for x in values], dtype=dtype)
    return (flat * inv[where.ravel(), None] % q).astype(np.int64).reshape(mats.shape)


def _unique_rows(mats):
    """(unique, first, inverse) as np.unique(mats, axis=0, return_index=True,
    return_inverse=True) gives them for a (k, n, n) int64 stack: the
    distinct matrices in lexicographic order, the index of each one's first
    occurrence, and each matrix's position among them.  One lexsort of the
    flattened matrices; np.unique(axis=0) sorts them field by field.
    """
    flat = mats.reshape(len(mats), -1)
    order = np.lexsort(flat.T[::-1])  # stable: equal rows keep their order
    ranked = flat[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    return mats[first], first, inverse


@dataclass(frozen=True)
class GroupClosure:
    """elements: one lexicographically sorted (count, n, n) int64 array of canonical forms."""

    elements: np.ndarray
    complete: bool
    count: int


def enumerate_group(generators, q: int, cap: int = 200_000) -> GroupClosure:
    """Projective closure of matrix generators over F_q, capped.

    Breadth first by rounds: each round multiplies the whole frontier by
    each generator and merges the images into the known elements with one
    sort, whose first occurrences past the known rows are the next
    frontier.  Past the cap the outcome is incomplete, with count cap + 1.
    """
    if cap < 1:
        raise WalkUsageError("cap must be >= 1")
    if not is_prime(q):
        raise WalkUsageError("q must be prime")
    gens = projective_canon(generators, q)
    known = frontier = np.eye(gens.shape[1], dtype=np.int64)[None]  # already canonical
    while len(frontier):
        images = projective_canon(np.concatenate([fq_matmul(frontier, g, q) for g in gens]), q)
        merged, first, _ = _unique_rows(np.concatenate([known, images]))
        if len(merged) > cap:
            return GroupClosure(known[:0], False, cap + 1)
        known, frontier = merged, merged[first >= len(known)]
    return GroupClosure(known, True, len(known))


def psl_order(n: int, q: int) -> int:
    """|PSL_n(F_q)| = q^{n(n-1)/2} prod_{i=2..n} (q^i - 1) / gcd(n, q-1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q ** i - 1
    return out // math.gcd(n, q - 1)


def sl_transvection_generators(n: int, q: int):
    """Elementary transvections E_{ij}(1); they generate SL_n(F_q)."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = np.eye(n, dtype=fq_dtype(n, q))
                m[i, j] = 1
                gens.append(m)
    return gens


# -- exact mixing --------------------------------------------------------------


@dataclass(frozen=True)
class WalkSpec:
    """Generators with a full-support probability vector, walk length, seed."""

    generators: tuple
    weights: tuple[Fraction, ...]
    length: int
    seed: int

    def __post_init__(self):
        if not self.generators:
            raise WalkUsageError("need at least one generator")
        if len(self.generators) != len(self.weights):
            raise WalkUsageError("weights must match generators")
        if any(w <= 0 for w in self.weights):
            raise WalkUsageError("weights must be positive")
        if sum(self.weights, Fraction(0)) != 1:
            raise WalkUsageError("weights must sum to 1")
        if self.length < 0:
            raise WalkUsageError("walk length must be >= 0")

    @staticmethod
    def uniform(generators, length: int, seed: int) -> "WalkSpec":
        k = len(generators)
        return WalkSpec(tuple(generators), tuple(Fraction(1, k) for _ in range(k)), length, seed)


@dataclass(frozen=True)
class MixingReport:
    group_order: int
    tv: tuple[Fraction, ...]
    lazy: bool

    def final_tv(self) -> Fraction:
        return self.tv[-1]

    def nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.tv, self.tv[1:]))

    def to_json(self) -> dict:
        return {
            "groupOrder": self.group_order,
            "method": "exact-transition",
            "lazy": self.lazy,
            "tv": [str(t) for t in self.tv],
            "tvFloat": [float(t) for t in self.tv],
        }

    def to_csv(self) -> str:
        lines = ["step,tv"]
        lines += [f"{i},{float(t)}" for i, t in enumerate(self.tv)]
        return "\n".join(lines)


def tv_to_uniform(
    spec: WalkSpec, group: GroupClosure, q: int, steps: int, lazy: bool = True
) -> MixingReport:
    """Exact law of the walk at every step and its TV distance to uniform.

    h -> h g permutes the group, so one sort of the images h g gives each
    generator's transition map, an index array into group.elements.  The
    law is num / den, Python-int numerators over one denominator; with the
    weights a_i / L (L the lcm of their denominators) a step is one
    scatter-add per generator.  Lazy symmetric chains (hold 1/2) have
    nonincreasing TV; the raw chain is supported, monotonicity not claimed.
    """
    if not group.complete:
        raise WalkUsageError("group must be fully enumerated")
    if not is_prime(q):
        raise WalkUsageError("q must be prime")
    if steps < 0:
        raise WalkUsageError("steps must be >= 0")
    elements = group.elements
    N = len(elements)
    perms = []
    for g in projective_canon(spec.generators, q):
        # G g is G itself exactly when g lies in G, and is disjoint from G otherwise
        images = projective_canon(fq_matmul(elements, g, q), q)
        images, _, where = _unique_rows(images)
        if not np.array_equal(images, elements):
            raise WalkUsageError("generator outside the enumerated group")
        perms.append(where)
    L = math.lcm(*(w.denominator for w in spec.weights))
    a = [w.numerator * (L // w.denominator) for w in spec.weights]
    num = np.zeros(N, dtype=object)
    num[np.all(elements == np.eye(elements.shape[1], dtype=np.int64), axis=(1, 2))] = 1
    den = 1

    def tv():
        return Fraction(int(np.abs(N * num - den).sum()), 2 * N * den)

    curve = [tv()]
    for _ in range(steps):
        nxt = np.zeros(N, dtype=object)
        for ai, perm in zip(a, perms):
            nxt[perm] += ai * num
        num, den = (num * L + nxt, 2 * den * L) if lazy else (nxt, den * L)
        assert num.sum() == den
        curve.append(tv())
    return MixingReport(N, tuple(curve), lazy)


# -- hyperplane hitting --------------------------------------------------------


# trials that hyperplane_prob's sample mode walks together; results do not depend on it
SAMPLE_BATCH = 4096


def hyperplane_prob(
    q: int,
    n: int,
    m: int,
    mode: str = "formula",
    trials: int = 0,
    seed: int = 0,
    cap: int = 20_000,
):
    """P(Xv in V) for X uniform in PSL_n(F_q), V an m-dimensional subspace.

    formula:    (q^m - 1)/(q^n - 1), exact.
    enumerate:  exact count over the full projective group (needs
                |PSL_n(F_q)| <= cap), v = e_1, V = span(e_1 .. e_m).
    sample:     frequency over `trials` pseudorandom products with a
                3-sigma binomial radius.  Each product is 60 steps, each
                a transvection or the identity, picked uniformly from
                random.Random(seed) as rng.choice would pick them;
                linalg.draw_picks draws a batch's picks at once, and
                linalg.fq_walk carries e_1 through the batch, each row
                through its own picks.
    """
    if not (1 <= m < n):
        raise WalkUsageError("need 1 <= m < n")
    if not is_prime(q):
        raise WalkUsageError("q must be prime")
    exact = Fraction(q ** m - 1, q ** n - 1)
    if mode == "formula":
        return exact
    gens = sl_transvection_generators(n, q)
    if mode == "enumerate":
        if psl_order(n, q) > cap:
            raise WalkUsageError(
                f"|PSL_{n}(F_{q})| = {psl_order(n, q)} exceeds cap {cap}"
            )
        closure = enumerate_group(gens, q, cap=cap + 1)
        assert closure.complete and closure.count == psl_order(n, q)
        hits = int(np.all(closure.elements[:, m:, 0] == 0, axis=1).sum())  # X e_1 in V
        return Fraction(hits, closure.count)
    if mode == "sample":
        if trials < 1:
            raise WalkUsageError("sample mode needs trials >= 1")
        rng = random.Random(seed)
        eye = np.eye(n, dtype=fq_dtype(n, q))
        mats = np.array(gens + [eye])  # the identity is the hold step, keeping the walk aperiodic
        hits = 0
        for start in range(0, trials, SAMPLE_BATCH):
            size = min(SAMPLE_BATCH, trials - start)
            picks = draw_picks(rng, len(mats), size * 60).reshape(size, 60)
            cols = fq_walk(mats, picks, eye[0], q)  # X e_1, X the product of the picked steps
            hits += int(np.all(cols[:, m:] == 0, axis=1).sum())
        freq = Fraction(hits, trials)
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / trials)
        return {"frequency": freq, "radius3sigma": 3 * sigma, "formula": exact}
    raise WalkUsageError(f"unknown mode {mode!r}")


# -- Monte Carlo vanishing ------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    hits: int
    frequency: Fraction | None
    ci95: tuple[float, float] | None
    radius3sigma: float | None
    kernel_dim: int
    space_dim: int
    exact_probability: Fraction
    walk_length: int
    seed: int

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "hits": self.hits,
            "frequency": str(self.frequency) if self.frequency is not None else None,
            "frequencyFloat": float(self.frequency) if self.frequency is not None else None,
            "ci95": list(self.ci95) if self.ci95 else None,
            "radius3sigma": self.radius3sigma,
            "kernelDim": self.kernel_dim,
            "spaceDim": self.space_dim,
            "exactProbability": str(self.exact_probability),
            "exactProbabilityFloat": float(self.exact_probability),
            "boundShape": str(self.exact_probability),
            "walkLength": self.walk_length,
            "seed": self.seed,
        }


def default_subgroup_walk(p: int, length: int, seed: int, n: int = 3, k: int = 1) -> WalkSpec:
    """Walk on certified Gamma_k I cap T_n words, closed under inverses."""
    drawn = [word_in_subgroup(n, k, seed * 977 + j + 1).word for j in range(SUBGROUP_WORDS)]
    return WalkSpec.uniform(tuple(x for w in drawn for x in (w, w.inverse())), length, seed)


def montecarlo_vanishing(
    desc: BoundedHeegaard,
    p: int,
    r: ResidueSpec,
    walkspec: WalkSpec,
    trials: int,
) -> MonteCarloReport:
    """Frequency of mod-J vanishing of the compressed vector along the walk.

    Each trial composes the base gluing with an independent walk of
    walkspec.length steps; all generator picks are drawn up front from
    the seed, so the result is reproducible for any worker count.  The
    trials are one batch of manifolds.compressed_walks, the kernel
    twist_search shares.
    """
    if trials < 0:
        raise WalkUsageError("trials must be >= 0")
    if r.p != p:
        raise RingUsageError("word and residue spec use different p")
    q = r.q
    dim = rep_dim(2, p)
    kdim = dim - len(surviving_indices(p, desc.boundary_genus))  # the projection kills the rest
    exact = Fraction(q ** kdim - 1, q ** dim - 1)
    if trials == 0:
        return MonteCarloReport(0, 0, None, None, None, kdim, dim, exact, walkspec.length, walkspec.seed)

    weights = np.array([float(w) for w in walkspec.weights])
    rng = np.random.default_rng(walkspec.seed)
    picks = rng.choice(len(weights), size=(trials, walkspec.length), p=weights / weights.sum())
    _, vanishing = compressed_walks(desc, r, walkspec.generators)(picks)
    hits = int(np.count_nonzero(vanishing))
    freq = Fraction(hits, trials)
    fhat = float(freq)
    se = math.sqrt(max(fhat * (1 - fhat), 1e-12) / trials)
    exact_se = math.sqrt(float(exact) * (1 - float(exact)) / trials)
    return MonteCarloReport(
        trials,
        hits,
        freq,
        (max(0.0, fhat - 1.96 * se), fhat + 1.96 * se),
        3 * exact_se,
        kdim,
        dim,
        exact,
        walkspec.length,
        walkspec.seed,
    )
