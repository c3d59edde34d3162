"""The three workloads: inputs made from a seed, one kind of operation each,
and the checks made on every output after the timed phase.

Constructing a workload is its set-up: it draws the operation list from
the seed and warms the caches the operations share (twist conjugators,
the letter matrices the list uses, residue specs), so that the cost of
an operation does not depend on the operations run before it.  The
workloads call the library through module attributes, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles
from qtop import cyclotomic, groups, manifolds, mcg, obstruct, rep, walks

CURVES = ("c1", "c2", "c3", "c4", "c5", "s")


def _letter_word(letter) -> "mcg.TwistWord":
    return mcg.TwistWord(2, (letter,))


def _mixes_handles(words) -> bool:
    """Whether some word has a c3 letter, the only catalogue curve meeting s.

    Conjugates of s^n by words in c1, c2, c4, c5 all equal s^n, so a walk
    on such generators never leaves the cyclic group of s^n.
    """
    return any(curve == "c3" for w in words for curve, _ in w.letters)


class Workload:
    name = ""
    pace = 1.0  # operations per second of --seconds
    skipped: dict = {}  # seeds passed over while drawing the operations, by reason

    @classmethod
    def op_count(cls, seconds: float) -> int:
        return max(2, round(seconds * cls.pace))

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list[str]:
        """Problems found in one operation's output; empty when it is right."""
        raise NotImplementedError

    def check_run(self, outs) -> list[str]:
        """Problems found across all outputs of the run."""
        return []


# -- exact: invariants of closed genus-2 manifolds at p = 7 ------------------


@dataclass(frozen=True)
class ExactOp:
    word: "mcg.TwistWord"
    n: int  # order of the cyclic group for Dijkgraaf-Witten


def balanced_word(rng: random.Random) -> "mcg.TwistWord":
    """12 twists, each catalogue curve twice, no curve twice in a row."""
    while True:
        curves = list(CURVES) * 2
        rng.shuffle(curves)
        if all(a != b for a, b in zip(curves, curves[1:])):
            return mcg.TwistWord(2, tuple((c, rng.choice((1, -1))) for c in curves))


class Exact(Workload):
    """RT, homology and DW of the Heegaard gluing and the mapping torus of a
    word, and the FKB ideal of the gluing: the CLI's `invariant rt`, `fkb`,
    `homology` and `invariant dw` at p = 7."""

    name = "exact"
    pace = 1.0  # a run takes about 0.8 of --seconds
    p = 7

    def __init__(self, seed: int, n_ops: int):
        rng = random.Random(seed)
        self.ops = [ExactOp(balanced_word(rng), rng.choice((2, 3, 4, 5, 6))) for _ in range(n_ops)]
        self.q8 = groups.builtin_group("Q8")
        self.cyclic = {n: groups.builtin_group(f"Z/{n}") for n in sorted({op.n for op in self.ops})}
        for letter in sorted({x for op in self.ops for x in op.word.letters}):
            rep.rho(_letter_word(letter), self.p)

    def run(self, op: ExactOp) -> dict:
        p = self.p
        out = {}
        for kind, desc in (
            ("gluing", manifolds.HeegaardGluing(2, op.word)),
            ("torus", manifolds.MappingTorus(2, op.word)),
        ):
            out[kind] = {
                "rt": manifolds.rt_closed(desc, p),
                "homology": manifolds.homology_of(desc),
                "dw_cyclic": manifolds.dw_invariant(desc, self.cyclic[op.n]),
                "dw_q8": manifolds.dw_invariant(desc, self.q8),
            }
        out["ideal"] = obstruct.fkb_ideal_closed(manifolds.HeegaardGluing(2, op.word), p)
        return out

    def check(self, op: ExactOp, out: dict) -> list[str]:
        p, problems = self.p, []
        gluing = out["gluing"]
        rank, torsion = gluing["homology"]
        order = math.prod(torsion)
        if rank == 0 and order % p:
            val = gluing["rt"].exact_div(cyclotomic.eta(p))
            if val.e:
                problems.append("RT/eta of a rational homology sphere has a p-denominator")
            elif oracles.murakami_image(val.coeffs, p) not in oracles.murakami_targets(order, p):
                problems.append(f"Murakami law fails: |H1| = {order}")
        expected = oracles.p_free_norm(gluing["rt"].coeffs, p)
        if out["ideal"].index() != expected:
            problems.append(f"ideal index {out['ideal'].index()} != norm {expected}")
        for kind in ("gluing", "torus"):
            rank, torsion = out[kind]["homology"]
            if out[kind]["dw_cyclic"] != oracles.dw_cyclic(rank, torsion, op.n):
                problems.append(f"{kind}: DW over Z/{op.n} disagrees with H1")
        letters = op.word.letters
        rotated = mcg.TwistWord(2, letters[1:] + letters[:1])
        if manifolds.rt_closed(manifolds.MappingTorus(2, rotated), p) != out["torus"]["rt"]:
            problems.append("mapping-torus trace changes under rotation of the word")
        return problems


# -- search: find and certify a non-embedding at p = 5 ------------------------


@dataclass(frozen=True)
class SearchOp:
    seed: int


def search_generators(seed: int) -> list:
    """The six certified generators twist_search draws for `seed` (n = 3, k = 1)."""
    return [mcg.word_in_subgroup(3, 1, seed * 1009 + j + 1).word for j in range(6)]


class Search(Workload):
    """`obstruct --candidate bounded:2:0:1 --target s3 --search`: twist_search,
    obstruct_embedding against S^3, rederive_report."""

    name = "search"
    pace = 13.0  # about 1.3 of --seconds: the median of a geometric cost needs many searches
    p, q = 5, 41
    budget = 2000

    def __init__(self, seed: int, n_ops: int):
        p = self.p
        self.r = cyclotomic.ResidueSpec.for_primes(p, self.q)
        self.candidate = manifolds.BoundedHeegaard(2, 0, mcg.TwistWord(2))
        rng = random.Random(seed)
        self.ops = []
        self.skipped = {"no c3 among the generators": 0}
        while len(self.ops) < n_ops:
            s = rng.randrange(1 << 20)
            if _mixes_handles(search_generators(s)):  # else the search cannot succeed
                self.ops.append(SearchOp(s))
            else:
                self.skipped["no c3 among the generators"] += 1
        # every generator letter, and every merge of two at a word boundary;
        # longer merges are powers of s, diagonal and cheap
        for curve in CURVES:
            for exp in (-4, -3, -2, -1, 1, 2, 3, 4):
                rep.rho_mod(_letter_word((curve, exp)), p, self.r)
        self._exact_letters: dict = {}

    def run(self, op: SearchOp):
        p = self.p
        found = obstruct.twist_search(self.candidate, p, self.r, budget=self.budget, seed=op.seed)
        if not found.found:
            raise RuntimeError(f"no vanishing word within budget {self.budget}")
        piece = manifolds.BoundedHeegaard(2, 0, found.full_word)
        report = obstruct.obstruct_embedding(piece, manifolds.S3, p, [self.q])
        return found, report, obstruct.rederive_report(report)

    def _letter_mod(self, letter, root: int):
        """Exact matrix of one twist power, reduced with its own arithmetic."""
        key = (letter, root)
        if key not in self._exact_letters:
            M = rep.twist_power_matrix(2, self.p, letter[0], letter[1])
            self._exact_letters[key] = [
                [oracles.residue(x.coeffs, x.e, self.p, self.q, root) for x in row]
                for row in M.entries
            ]
        return self._exact_letters[key]

    def check(self, op: SearchOp, out) -> list[str]:
        found, report, rederived = out
        p, q, problems = self.p, self.q, []
        if report.verdict != "OBSTRUCTED" or report.q_used != q or not rederived:
            problems.append(f"verdict {report.verdict} at q = {report.q_used}, rederived {rederived}")
        entry = report.certificate[-1]
        root = entry["root"]
        if root != oracles.smallest_root(p, q):
            problems.append(f"root {root} is not the smallest of order {4 * p} mod {q}")
        if entry["mResidue"] % q == 0:
            problems.append("RT(S^3) residue is zero, but eta is a unit")
        if any(x % q for x in entry["nVector"]):
            problems.append("certificate vector does not vanish")
        word = report.candidate.word
        if word != found.full_word:
            problems.append("report candidate is not the searched gluing")
        basis = oracles.dumbbell_colourings(p)
        vec = [0] * len(basis)
        vec[basis.index((0, 0, 0))] = 1
        for letter in reversed(word.letters):
            vec = oracles.mat_vec(self._letter_mod(letter, root), vec, q)
        if vec[basis.index((0, 0, 0))] != 0:
            problems.append("exact letters do not give a vanishing vacuum coordinate")
        return problems


# -- montecarlo: vanishing frequency along subgroup walks at p = 11 -----------


@dataclass(frozen=True)
class MonteCarloOp:
    desc: "manifolds.BoundedHeegaard"
    walk_seed: int


class MonteCarlo(Workload):
    """`walk montecarlo --desc bounded:2:0:W --p 11 --q 89 --d 100 --trials 64`:
    default_subgroup_walk, then montecarlo_vanishing."""

    name = "montecarlo"
    pace = 0.4  # the timed phase is about --seconds; set-up adds three times ~8 s
    p, q = 11, 89
    trials, steps = 64, 100

    def __init__(self, seed: int, n_ops: int):
        p = self.p
        self.r = cyclotomic.ResidueSpec.for_primes(p, self.q)
        rng = random.Random(seed)
        self.ops = []
        self.skipped = {"no c3 among the generators": 0, "generators not all of 5 letters": 0}
        letters = set()
        while len(self.ops) < n_ops:
            walk_seed = rng.randrange(1 << 20)
            gens = walks.default_subgroup_walk(p, self.steps, walk_seed).generators
            if not _mixes_handles(gens):  # the walk would stay in the cyclic group of s^3
                self.skipped["no c3 among the generators"] += 1
                continue
            if any(len(w.letters) != 5 for w in gens):  # keep g s^3 g^-1, |g| = 2: equal costs
                self.skipped["generators not all of 5 letters"] += 1
                continue
            base = mcg.TwistWord(2, tuple((rng.choice(CURVES), rng.choice((1, -1))) for _ in range(3)))
            self.ops.append(MonteCarloOp(manifolds.BoundedHeegaard(2, 0, base), walk_seed))
            letters.update(x for w in (base, *gens) for x in w.letters)
        for letter in sorted(letters):
            rep.rho_mod(_letter_word(letter), p, self.r)
        self._letters: dict = {}

    def run(self, op: MonteCarloOp):
        spec = walks.default_subgroup_walk(self.p, self.steps, op.walk_seed)
        return spec, walks.montecarlo_vanishing(op.desc, self.p, self.r, spec, self.trials)

    def _letter(self, letter, r):
        key = (letter, r.root)
        if key not in self._letters:
            self._letters[key] = np.array(rep.rho_mod(_letter_word(letter), self.p, r), dtype=np.int64)
        return self._letters[key]

    def _word_matrix(self, word, r):
        q = self.q
        out = np.eye(len(oracles.dumbbell_colourings(self.p)), dtype=np.int64)
        for letter in word.letters:
            out = out @ self._letter(letter, r) % q
        return out

    @functools.cached_property
    def gram(self):
        """The Hermitian Gram matrix mod q (diagonal), reduced with own arithmetic."""
        G = rep.hermitian_gram(2, self.p)
        diag = [oracles.residue(x.coeffs, x.e, self.p, self.q, self.r.root) for x in
                (G.entries[i][i] for i in range(G.n))]
        return np.diag(np.array(diag, dtype=np.int64))

    def replayed_hits(self, op: MonteCarloOp, spec) -> int:
        """Hits of op's walk, replayed from its seed the way montecarlo_vanishing
        draws the picks, with e_vac carried right to left through the base
        word and the generators as the benchmark's own word matrices
        (matrix-vector products mod q)."""
        q, basis = self.q, oracles.dumbbell_colourings(self.p)
        vac = basis.index((0, 0, 0))
        gens = np.array([self._word_matrix(w, self.r) for w in spec.generators])
        weights = np.array([float(w) for w in spec.weights])
        picks = np.random.default_rng(spec.seed).choice(
            len(gens), size=(self.trials, spec.length), p=weights / weights.sum()
        )
        vecs = np.zeros((self.trials, len(basis)), dtype=np.int64)
        vecs[:, vac] = 1
        for step in reversed(range(spec.length)):
            vecs = np.einsum("tij,tj->ti", gens[picks[:, step]], vecs) % q
        vacuum = vecs @ self._word_matrix(op.desc.word, self.r)[vac] % q
        return int((vacuum == 0).sum())

    def check(self, op: MonteCarloOp, out) -> list[str]:
        spec, report = out
        p, q, problems = self.p, self.q, []
        space = len(oracles.dumbbell_colourings(p))
        kernel = space - 1  # boundary genus 0 keeps the vacuum coordinate only
        if (report.space_dim, report.kernel_dim) != (space, kernel):
            problems.append(f"dimensions {report.space_dim}/{report.kernel_dim} != {space}/{kernel}")
        if report.exact_probability != Fraction(q ** kernel - 1, q ** space - 1):
            problems.append("exact probability is not (q^k - 1)/(q^n - 1)")
        if (report.trials, report.walk_length, report.seed) != (self.trials, self.steps, op.walk_seed):
            problems.append("report does not record the requested trials, steps and seed")
        if not 0 <= report.hits <= report.trials or report.frequency != Fraction(report.hits, report.trials):
            problems.append(f"frequency {report.frequency} is not hits/trials = {report.hits}/{report.trials}")
        hits = self.replayed_hits(op, spec)
        if report.hits != hits:
            problems.append(f"{report.hits} hits, but the replayed walk gives {hits}")
        inverse = cyclotomic.ResidueSpec(p, q, pow(self.r.root, -1, q))
        G = self.gram
        for word in spec.generators:
            M = self._word_matrix(word, self.r)
            M_bar = self._word_matrix(word, inverse)
            if not np.array_equal(M_bar.T @ G % q @ M % q, G):
                problems.append(f"generator {word} breaks the Hermitian law mod {q}")
        return problems

    def check_run(self, outs) -> list[str]:
        reports = [report for _spec, report in outs]
        if not reports:
            return []
        trials = sum(r.trials for r in reports)
        hits = sum(r.hits for r in reports)
        lo, hi = oracles.binomial_bounds(trials, float(reports[0].exact_probability))
        if not lo <= hits <= hi:
            return [f"{hits} hits in {trials} trials is outside the binomial bounds [{lo}, {hi}]"]
        return []


WORKLOADS = {cls.name: cls for cls in (Exact, Search, MonteCarlo)}
