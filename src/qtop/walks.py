"""Random walks, exact mixing, hyperplane hitting, and the Monte Carlo
reproduction of the non-embedding probability bound.

Exact distributions are vectors of Fractions over an enumerated finite
matrix group; Monte Carlo trials carry a batch of vacuum vectors through
mod-q generator matrices, with all randomness drawn up front from one
seed, so results do not depend on how trials are scheduled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import ResidueSpec, is_prime
from .linalg import fq_dtype, fq_matmul, fq_walk
from .manifolds import BoundedHeegaard
from .mcg import word_in_subgroup
from .obstruct import surviving_indices
from .rep import rep_dim, rho_array, vacuum_index, vacuum_vector


class WalkUsageError(ValueError):
    pass


# -- finite matrix groups over F_q -------------------------------------------


def projective_canon(mat, q: int):
    """Scale a matrix over F_q so its first nonzero entry is 1 (PGL canon),
    as a tuple of rows of ints: the hashable key of its projective class."""
    rows = (np.asarray(mat, dtype=fq_dtype(len(mat), q)) % q).tolist()
    lead = next((x for row in rows for x in row if x), None)
    if lead is None:
        raise WalkUsageError("zero matrix is not a group element")
    inv = pow(lead, q - 2, q)
    return tuple(tuple(x * inv % q for x in row) for row in rows)


@dataclass(frozen=True)
class GroupClosure:
    elements: tuple
    complete: bool
    count: int

    @property
    def cap_exceeded(self) -> bool:
        return not self.complete


def enumerate_group(generators, q: int, cap: int = 200_000) -> GroupClosure:
    """Projective closure of matrix generators over F_q (BFS), capped.

    Returns the full element list when the closure fits under the cap;
    otherwise a CAP_EXCEEDED outcome carrying the partial count.
    """
    if cap < 1:
        raise WalkUsageError("cap must be >= 1")
    if not is_prime(q):
        raise WalkUsageError("q must be prime")
    gens = [projective_canon(g, q) for g in generators]
    ident = projective_canon(np.eye(len(gens[0]), dtype=np.int64), q)
    seen = {ident}
    queue = [ident]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = projective_canon(fq_matmul(cur, g, q), q)
            if nxt not in seen:
                if len(seen) >= cap:
                    return GroupClosure(tuple(), False, len(seen) + 1)
                seen.add(nxt)
                queue.append(nxt)
    return GroupClosure(tuple(sorted(seen)), True, len(seen))


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

    @staticmethod
    def uniform(generators, length: int, seed: int) -> "WalkSpec":
        k = len(generators)
        return WalkSpec(tuple(generators), tuple(Fraction(1, k) for _ in range(k)), length, seed)


@dataclass(frozen=True)
class MixingReport:
    group_order: int
    tv: tuple[Fraction, ...]
    method: str  # exact-transition | empirical
    lazy: bool

    def final_tv(self) -> Fraction:
        return self.tv[-1]

    def nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.tv, self.tv[1:]))

    def to_json(self) -> dict:
        return {
            "schemaVersion": 1,
            "groupOrder": self.group_order,
            "method": self.method,
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

    Lazy symmetric chains (hold 1/2) have nonincreasing TV; the raw
    product chain is also supported but monotonicity is not claimed.
    """
    if not group.complete:
        raise WalkUsageError("group must be fully enumerated")
    if not is_prime(q):
        raise WalkUsageError("q must be prime")
    elements = group.elements
    index = {g: i for i, g in enumerate(elements)}
    N = len(elements)
    gen_maps = []
    for g in spec.generators:
        gq = projective_canon(g, q)
        if gq not in index:
            raise WalkUsageError("generator outside the enumerated group")
        gen_maps.append([index[projective_canon(fq_matmul(h, gq, q), q)] for h in elements])
    uniform = Fraction(1, N)
    dist = [Fraction(0)] * N
    ident = projective_canon(np.eye(len(spec.generators[0]), dtype=np.int64), q)
    dist[index[ident]] = Fraction(1)

    def tv(d):
        return sum(abs(x - uniform) for x in d) / 2

    curve = [tv(dist)]
    for _ in range(steps):
        nxt = [Fraction(0)] * N
        for w, gmap in zip(spec.weights, gen_maps):
            for i, mass in enumerate(dist):
                if mass:
                    nxt[gmap[i]] += w * mass
        if lazy:
            dist = [(a + b) / 2 for a, b in zip(dist, nxt)]
        else:
            dist = nxt
        assert sum(dist) == 1
        curve.append(tv(dist))
    return MixingReport(N, tuple(curve), "exact-transition", lazy)


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
                random.Random(seed); linalg.fq_walk carries e_1 through
                a batch of products at once.
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
        hits = 0
        for X in closure.elements:
            col = [X[i][0] for i in range(n)]  # X e_1
            if all(x % q == 0 for x in col[m:]):
                hits += 1
        return Fraction(hits, closure.count)
    if mode == "sample":
        if trials < 1:
            raise WalkUsageError("sample mode needs trials >= 1")
        rng = random.Random(seed)
        eye = np.eye(n, dtype=fq_dtype(n, q))
        mats = np.array(gens + [eye])  # the identity is the hold step, keeping the walk aperiodic
        index = range(len(mats))
        hits = 0
        for start in range(0, trials, SAMPLE_BATCH):
            size = min(SAMPLE_BATCH, trials - start)
            picks = np.array([[rng.choice(index) for _ in range(60)] for _ in range(size)])
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
    bound_shape: Fraction
    walk_length: int
    seed: int

    def to_json(self) -> dict:
        return {
            "schemaVersion": 1,
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
            "boundShape": str(self.bound_shape),
            "walkLength": self.walk_length,
            "seed": self.seed,
        }


def default_subgroup_walk(
    p: int, length: int, seed: int, n: int = 3, k: int = 1, count: int = 6
) -> WalkSpec:
    """Walk on certified Gamma_k I cap T_n words, closed under inverses."""
    words = []
    for j in range(count):
        cw = word_in_subgroup(n, k, seed * 977 + j + 1)
        words.append(cw.word)
        words.append(cw.word.inverse())
    return WalkSpec.uniform(tuple(words), length, seed)


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
    the seed, so the result is reproducible for any worker count.  Only
    the vacuum column is read, so linalg.fq_walk carries a (trials, dim)
    batch of vacuum vectors right to left through the picked generators
    (the walk kernel twist_search shares: one product per step giving
    every generator's image, of which each trial keeps its pick's), then
    linalg.fq_matmul applies the base word's matrix.  Both compute exactly
    in the dtype linalg._product_dtype picks from dim and q.
    """
    q = r.q
    keep = surviving_indices(p, desc.boundary_genus)
    dim = rep_dim(2, p)
    kdim = dim - len(keep)  # the projection kills every other coordinate
    exact = Fraction(q ** kdim - 1, q ** dim - 1)
    bound = Fraction(q ** (dim - (1 if desc.boundary_genus == 0 else rep_dim(1, p))) - 1, q ** dim - 1)

    vac = vacuum_index(2, p)
    base = rho_array(desc.word, r)
    if np.all(base[:, vac] % q == 0):
        raise WalkUsageError("handlebody vector is zero mod J: degenerate setup")

    if trials == 0:
        return MonteCarloReport(
            0, 0, None, None, None, kdim, dim, exact, bound, walkspec.length, walkspec.seed
        )

    gen_mats = np.array([rho_array(w, r) for w in walkspec.generators])
    weights = np.array([float(w) for w in walkspec.weights])
    weights = weights / weights.sum()
    rng = np.random.default_rng(walkspec.seed)
    picks = rng.choice(len(gen_mats), size=(trials, walkspec.length), p=weights)

    vectors = fq_matmul(fq_walk(gen_mats, picks, vacuum_vector(2, r), q), base.T, q)
    hits = int(np.all(vectors[:, list(keep)] == 0, axis=1).sum())
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
        bound,
        walkspec.length,
        walkspec.seed,
    )
