"""Projective quantum representations of mapping class groups, genus 1 and 2.

Genus 1: the color basis of the torus, ordered by spectral_color_order, with
t_a the diagonal twist matrix and t_b its s_matrix conjugate.

Genus 2: the dumbbell basis.  Basis labels are admissible colorings
(a, c, b) of the dumbbell spine (left loop a, bridge c, right loop b with
(a,a,c) and (b,b,c) admissible).  The catalogued twists act as:

    t_c2 = diag(mu_a),  t_c4 = diag(mu_b),  t_s = diag(mu_c)

(curves encircling a spine strand act by the twist eigenvalue of its
color), while t_c1, t_c5 are conjugates of diagonal matrices by the
one-holed-torus S-move of the corresponding handle and t_c3 is a
conjugate by the S-moves on both handles followed by the bridge
recoupling.  The S-move matrix (skein._holed_torus_s, whose boundary
color 0 case is the genus-1 s_matrix) is computed by expanding the
clasped, bridge-connected Hopf pairing into twist eigenvalues and
tetrahedral coefficients; correctness of the whole assembly is enforced
by the braid / commutation / Hermitian relation suite rather than by
construction.

The S-move and bridge blocks, the conjugators and the representation
itself are built over a scalar ring R chosen by the caller, as in skein:
p for exact PMatrices, a ResidueSpec for read-only numpy arrays of
residues.  Each block comes with its inverse from an identity of the move
(see _twist_conjugators), so nothing is inverted by a general method.
twist_power_matrix is the one letter formula, Q D^k Q^-1, and rho(word, R)
the one product of the cached letters over either ring, the ring's
product.  Exactly, the letters, diagonal (c2, c4, s) or not, go to
pmatrix's one chain product, which carries the word right to left as
values at the roots of Phi_4p and lifts only when its primes run out;
each cached letter keeps its values at the roots per prime
(PMatrix.keep_values).  Over F_q the letters (equal to the reductions of
the exact ones) multiply by linalg.fq_matmul, left to right.  rho_mod is
the list edge for output, rho(word, r) as a tuple of rows of ints.
rho_apply carries a vector right to left through the letters over either
ring, for callers that read a single column such as the vacuum column.
The letters go to the ring's apply as one chain: exactly, the same chain
product with the one-column PMatrix as its last factor; over F_q,
linalg.fq_apply multiplies in int64 (or Python ints past it) and reduces
mod q only when the next product could leave int64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclotomic import ResidueSpec, RingUsageError
from .linalg import fq_mat_mul, fq_matmul, fq_rref  # noqa: F401  (fq_mat_mul: kept for bench/tracing.py)
from .mcg import TwistWord, WordError
from .pmatrix import PMatrix, scalar_ring
from .skein import (
    _holed_torus_s,
    admissible,
    colors,
    spectral_color_order,
    quantum_dim,
    s_matrix,
    tet,
    theta,
    _theta_inv,
    twist,
)


# -- bases ----------------------------------------------------------------


@lru_cache(maxsize=None)
def genus2_basis(p: int) -> tuple[tuple[int, int, int], ...]:
    """Dumbbell colorings (a, c, b), lexicographic in natural color order."""
    out = []
    for a in colors(p):
        for c in colors(p):
            if not admissible(p, a, a, c):
                continue
            for b in colors(p):
                if admissible(p, b, b, c):
                    out.append((a, c, b))
    return tuple(out)


def rep_dim(genus: int, p: int) -> int:
    if genus == 1:
        return len(spectral_color_order(p))
    if genus == 2:
        return len(genus2_basis(p))
    raise WordError(f"unsupported genus {genus}")


def vacuum_index(genus: int, p: int) -> int:
    if genus == 1:
        return spectral_color_order(p).index(0)
    return genus2_basis(p).index((0, 0, 0))


# -- bridge recoupling -----------------------------------------------------


@lru_cache(maxsize=None)
def _bridge_f_block(R, a: int, b: int) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """Expansion of dumbbell vectors in the theta basis for fixed loop
    colors, and its inverse.

    Row f, column c: sixj(a, a, c, b, b, f), carrying the (a,a)(b,b)
    channel c to the bridge-recoupled channel f.  By the orthogonality of
    6j symbols the inverse has entry (c, f) = sixj(a, b, f, b, a, c).  Both
    symbols normalize the same tetrahedron tet[a a c; b b f], so it is
    evaluated once for the pair.
    """
    p = scalar_ring(R).p
    cs = [c for c in colors(p) if admissible(p, a, a, c) and admissible(p, b, b, c)]
    fs = [f for f in colors(p) if admissible(p, a, b, f)]
    tets = [[tet(R, a, a, c, b, b, f) for c in cs] for f in fs]
    f_weights = [quantum_dim(R, f) * _theta_inv(R, a, b, f) * _theta_inv(R, a, b, f) for f in fs]
    c_weights = [quantum_dim(R, c) * _theta_inv(R, a, a, c) * _theta_inv(R, b, b, c) for c in cs]
    block = tuple(tuple(t * w for t in row) for row, w in zip(tets, f_weights))
    inverse = tuple(tuple(t * w for t in col) for col, w in zip(zip(*tets), c_weights))
    return block, inverse


def _dumbbell_groups(p: int, key) -> dict[tuple[int, int], list[int]]:
    """Positions in genus2_basis(p) grouped by key(a, c, b), each group in
    basis order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, label in enumerate(genus2_basis(p)):
        groups.setdefault(key(*label), []).append(pos)
    return groups


def _embed_blocks(R, groups, block_of):
    """(M, M^{-1}) over R, block-diagonal, from per-group square blocks.

    block_of(key) gives a group's block and its inverse; the inverse of a
    block-diagonal matrix is the block-diagonal matrix of the inverses.
    """
    S = scalar_ring(R)
    n = rep_dim(2, S.p)
    pair = ([[S.zero] * n for _ in range(n)], [[S.zero] * n for _ in range(n)])
    for key, positions in groups.items():
        for rows, block in zip(pair, block_of(key)):
            for bi, pi in enumerate(positions):
                for bj, pj in enumerate(positions):
                    rows[pi][pj] = block[bi][bj]
    return tuple(S.matrix(rows) for rows in pair)


@lru_cache(maxsize=None)
def _left_s_operator(R):
    groups = _dumbbell_groups(scalar_ring(R).p, lambda a, c, b: (c, b))
    return _embed_blocks(R, groups, lambda key: _holed_torus_s(R, key[0]))


@lru_cache(maxsize=None)
def _right_s_operator(R):
    groups = _dumbbell_groups(scalar_ring(R).p, lambda a, c, b: (a, c))
    return _embed_blocks(R, groups, lambda key: _holed_torus_s(R, key[1]))


@lru_cache(maxsize=None)
def _bridge_f_matrix(R):
    """Coordinate change dumbbell -> theta and its inverse, block-diagonal
    over (a, b).

    Theta-basis labels (a, f, b) are ordered per block by f ascending.
    """
    groups = _dumbbell_groups(scalar_ring(R).p, lambda a, c, b: (a, b))
    return _embed_blocks(R, groups, lambda key: _bridge_f_block(R, *key))


@lru_cache(maxsize=None)
def _theta_labels(p: int) -> tuple[tuple[int, int, int], ...]:
    """Label (a, f, b) occupying each coordinate slot after the bridge move."""
    labels: list[tuple[int, int, int] | None] = [None] * len(genus2_basis(p))
    for (a, b), positions in _dumbbell_groups(p, lambda a, c, b: (a, b)).items():
        fs = [f for f in colors(p) if admissible(p, a, b, f)]
        for bi, f in enumerate(fs):
            labels[positions[bi]] = (a, f, b)
    return tuple(labels)


# -- twist generator matrices ----------------------------------------------


@lru_cache(maxsize=None)
def _twist_conjugators(genus: int, R, curve: str):
    """(Q, Q^{-1}, eigenvalues d) over R: the twist is Q diag(d) Q^{-1}.

    Q = None means the twist is diagonal in the reference basis.
    Arbitrary powers are then exact: Q diag(d^k) Q^{-1}.  The conjugators
    are products of block-diagonal moves, each built with its inverse: the
    closed-torus S-move is an involution, the one-holed S-moves square to
    scalars and the bridge move is inverted by 6j orthogonality.
    """
    S = scalar_ring(R)
    p = S.p
    if genus == 1:
        diag = tuple(twist(R, n) for n in spectral_color_order(p))
        if curve == "a":
            return None, None, diag
        if curve == "b":
            return s_matrix(R), s_matrix(R), diag
        raise WordError(f"unknown genus-1 curve {curve!r}")
    basis = genus2_basis(p)
    if curve == "c2":
        return None, None, tuple(twist(R, a) for a, c, b in basis)
    if curve == "c4":
        return None, None, tuple(twist(R, b) for a, c, b in basis)
    if curve == "s":
        return None, None, tuple(twist(R, c) for a, c, b in basis)
    if curve == "c1":
        return (*_left_s_operator(R), tuple(twist(R, a) for a, c, b in basis))
    if curve == "c5":
        return (*_right_s_operator(R), tuple(twist(R, b) for a, c, b in basis))
    if curve == "c3":
        BL, BLi = _left_s_operator(R)
        BR, BRi = _right_s_operator(R)
        F, Fi = _bridge_f_matrix(R)
        Q = S.product([BL, BR, Fi])
        Qinv = S.product([F, BRi, BLi])
        diag = tuple(twist(R, f) for a, f, b in _theta_labels(p))
        return Q, Qinv, diag
    raise WordError(f"unknown genus-2 curve {curve!r}")


def twist_power_matrix(genus: int, R, curve: str, k: int):
    """Matrix of t_curve^k over R, Q D^k Q^{-1} from the conjugators, or
    D^k for a diagonal twist; t^p is the exact identity."""
    S = scalar_ring(R)
    Q, Qinv, diag = _twist_conjugators(genus, R, curve)
    D = S.diagonal([x ** k for x in diag])
    if Q is None:
        return D
    return S.product([Q, D, Qinv])


@lru_cache(maxsize=None)
def _letter_matrix(genus: int, p: int, curve: str, k: int) -> PMatrix:
    return twist_power_matrix(genus, p, curve, k).keep_values()


@lru_cache(maxsize=None)
def _letter_matrix_mod(genus: int, curve: str, k: int, r: ResidueSpec) -> np.ndarray:
    return twist_power_matrix(genus, r, curve, k)


def letter_matrix(genus: int, R, curve: str, k: int):
    """The cached matrix of t_curve^k over R: exact for R = p, in F_q for a
    ResidueSpec."""
    if isinstance(R, ResidueSpec):
        return _letter_matrix_mod(genus, curve, k, R)
    return _letter_matrix(genus, R, curve, k)


def rho(word: TwistWord, R):
    """The quantum representation over R: the ring's product of the cached
    twist-power letters."""
    S = scalar_ring(R)
    if not word.letters:
        return S.diagonal([S.one] * rep_dim(word.genus, S.p))
    return S.product([letter_matrix(word.genus, R, *letter) for letter in word.letters])


# -- mod-q reductions -------------------------------------------------------


def fq_is_scalar(M, q: int) -> bool:
    """Whether the matrix M of residues mod q is a nonzero scalar."""
    M = np.asarray(M)
    d = M[0, 0]
    return bool(d % q) and np.array_equal(M, d * np.eye(len(M), dtype=M.dtype))


def rho_mod(word: TwistWord, p: int, r: ResidueSpec):
    """rho(word, r) as a tuple of rows of ints: the list edge for output.
    Equal to the entrywise reduction of rho(word, p) and functorial on the
    nose."""
    if r.p != p:
        raise RingUsageError("word and residue spec use different p")
    return tuple(map(tuple, rho(word, r).tolist()))


# -- one column: vectors carried through the letters ------------------------


@lru_cache(maxsize=None)
def vacuum_vector(genus: int, R):
    """The handlebody vector e_vac over R, cached as the letters are:
    either kind of vector is read-only."""
    S = scalar_ring(R)
    vac = vacuum_index(genus, S.p)
    return S.vector([S.one if i == vac else S.zero for i in range(rep_dim(genus, S.p))])


def rho_apply(word: TwistWord, R, vec):
    """rho(word) vec over R, carried right to left through the cached
    letters by the ring's apply: each letter multiplies one column instead
    of a dense matrix.  Each distinct letter is looked up in the cache
    once, since every lookup hashes R."""
    cached = {letter: letter_matrix(word.genus, R, *letter) for letter in set(word.letters)}
    return scalar_ring(R).apply([cached[letter] for letter in word.letters], vec)


# -- Hermitian structure ----------------------------------------------------


@lru_cache(maxsize=None)
def hermitian_gram(genus: int, p: int) -> PMatrix:
    """Diagonal Gram matrix of the invariant Hermitian pairing.

    Genus 1: identity.  Genus 2: entry theta(a,a,c) theta(b,b,c) /
    (Delta_a Delta_b Delta_c), from splitting the doubled handlebody
    along its separating sphere.
    """
    if genus == 1:
        return PMatrix.identity(p, rep_dim(1, p))
    diag = []
    for a, c, b in genus2_basis(p):
        val = theta(p, a, a, c) * theta(p, b, b, c)
        den = quantum_dim(p, a) * quantum_dim(p, b) * quantum_dim(p, c)
        diag.append(val.exact_div(den))
    return PMatrix.diagonal(p, diag)


def hermitian_check(word: TwistWord, p: int) -> bool:
    """Whether rho(word)* G rho(word) = lambda G for some scalar lambda."""
    M = rho(word, p)
    G = hermitian_gram(word.genus, p)
    return (M.conj_transpose() * G * M).proj_equal(G)


# -- surjectivity evidence ---------------------------------------------------


def algebra_span_dim(words, r: ResidueSpec) -> int:
    """Dimension over F_q of the matrix algebra spanned by rho(words, r).

    d^2 certifies irreducibility of the generated subgroup (Burnside);
    reported as surjectivity evidence, never as proof.
    """
    return len(fq_rref([rho(w, r).ravel() for w in words], r.q))


def fq_projective_order(M, q: int, cap: int = 10000) -> int | None:
    """Order of the matrix M of residues in PGL_n(F_q), or None if it
    exceeds cap.  Successive powers are linalg.fq_matmul products."""
    acc = M
    for k in range(1, cap + 1):
        if fq_is_scalar(acc, q):
            return k
        acc = fq_matmul(acc, M, q)
    return None
