"""Exact integer and finite-field linear algebra helpers.

The exact and lattice helpers (HNF, Smith form from alternating HNFs,
Bareiss) work on plain Python ints (arbitrary precision) or on ring
elements supplied by the caller, so results are exact; their matrices
are lists of lists, rows first.  F_q matrices are numpy arrays of
residues in fq_dtype: fq_matmul and fq_walk are the one F_q product and
walk kernel, computing in a dtype chosen from n and q so that every
product sum is exact (the tiers are listed in _product_dtype), and
fq_rref is the one F_q echelon.  fq_apply carries one vector through a
chain of matrices in fq_dtype with delayed reduction: from a bound on
the vector's entries it reduces mod q only before a product that could
pass 2^63.  draw_picks draws the walks' picks in bulk, as one
random.Random.choice per pick would.
"""

from __future__ import annotations

import math

import numpy as np


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the canonical basis: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows dropped, rows ordered by pivot column.
    Each column is cleared by Euclidean steps: the row with the smallest
    nonzero entry there reduces the others by division, until one row is
    left.  Entries stay near the size of the input's, where combining row
    pairs by their xgcd coefficients can grow them exponentially in the
    number of columns.
    """
    if not rows:
        return []
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(len(rows[0])):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            nxt = [piv]
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r = [u - q * v for u, v in zip(r, piv)]
                    if r[col]:
                        nxt.append(r)
                    elif any(r):
                        work.append(r)
            live = nxt
        if live:
            basis.append(live[0] if live[0][col] > 0 else [-u for u in live[0]])
    # reduce entries above pivots; ascending order keeps earlier pivot
    # columns untouched (row i has zeros left of its pivot)
    for i in range(len(basis)):
        piv_col = next(j for j, u in enumerate(basis[i]) if u != 0)
        piv = basis[i][piv_col]
        for k in range(i):
            q = basis[k][piv_col] // piv
            if q:
                basis[k] = [u - q * v for u, v in zip(basis[k], basis[i])]
    return basis


def lattice_contains(basis: list[list[int]], target) -> bool:
    """Whether `target` is an integer combination of the HNF `basis` rows.

    Back-substitution: each basis row in turn takes its pivot's multiple
    off target's entry in the pivot column.  Later rows are zero in that
    column, so target is in the lattice exactly when nothing is left.
    """
    t = list(target)
    for r in basis:
        pc = next(j for j, u in enumerate(r) if u)
        q = t[pc] // r[pc]
        if q:
            t = [u - q * v for u, v in zip(t, r)]
    return not any(t)


def snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of the matrix (Smith form).

    Alternates row HNFs of the matrix and of its transpose (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4) until every row has one
    nonzero entry: each is a unimodular equivalence, and hnf drops zero
    rows.  It terminates because the top-left pivot never grows.  After an
    HNF the first column is (a, 0, ..., 0); the next pivot is the gcd of
    the first row, so it divides a, and is a itself only when a divides
    the whole first row.  Then (a, 0, ..., 0) lies in the transpose's row
    lattice, so by uniqueness it is that HNF's first row: the first row
    and column split off, and the rest follows by induction.  The diagonal
    is then put in divisibility order by (d_i, d_j) <- (gcd, lcm), i < j.
    """
    mat = hnf(rows)
    while any(len(r) - r.count(0) > 1 for r in mat):
        mat = hnf(list(zip(*mat)))
    diag = [next(u for u in r if u) for r in mat]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def fq_mat_mul(A, B, q: int):
    """Schoolbook product of two square matrices over F_q, as a tuple of
    rows.  No code here calls it: it is the oracle the tests compare
    fq_matmul against, and bench/tracing.py wraps it by name."""
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def fq_dtype(n: int, q: int):
    """numpy dtype for n x n products over F_q: int64 holds every sum of n
    products of residues only while n (q - 1)^2 < 2^63; above that, Python
    ints (object)."""
    return np.int64 if n * (q - 1) ** 2 < 2 ** 63 else object


def _product_dtype(n: int, q: int):
    """dtype in which a sum of n products of residues is computed exactly.

    The tiers, by the largest such sum n (q - 1)^2:
      below 2^24, float32 (sgemm);
      below 2^53, float64 (dgemm);
      below 2^63, int64;
      above, Python ints (object).
    The float tiers are the delayed-reduction bound of FFLAS-FFPACK (Dumas,
    Giorgi, Pernet, ACM TOMS 2008): with every input a residue in [0, q),
    every product and partial sum is an integer below 2^24 (2^53), which
    float32 (float64) holds exactly, so BLAS gives the exact sum in
    whatever order it adds and whether or not it fuses multiply and add.
    """
    worst = n * (q - 1) ** 2
    if worst < 2 ** 24:
        return np.float32
    return np.float64 if worst < 2 ** 53 else fq_dtype(n, q)


# the entry count from which _residues reduces by floor division
_FLOOR_SIZE = 1024


def _residues(x, q: int, ints=np.int64):
    """x mod q for exact products x, as residues in ints (or object); x
    is a fresh array, reduced in place.

    From _FLOOR_SIZE entries on, an integer array is reduced as
    x - q floor(x / q): numpy's floor_divide by a scalar divides by the
    invariant integer q with a multiplication and shifts (Granlund and
    Montgomery, PLDI 1994, by way of libdivide), where remainder divides
    entry by entry.  The quotients take the float array's memory when
    the float tier has the integers' width: one full-size array less at
    the peak, 22 MB of `invariant rt --desc heegaard:2:c1*c3 --p 19`'s
    resident peak.  Per call on a fresh float product, its cast included
    (one BLAS thread, a 2-vCPU VM, numpy 2.4), % and floor division took:
      168 float64 entries (12, 14), 1.8 and 2.7 us (float32: 1.5, 2.7);
      512, 3.2 and 3.4 us (float32: 2.4, 3.0);
      1 024, 5.1 and 4.2 us (float32: 3.5, 3.2);
      2 352 (12, 14, 14), 10.5 and 6.8 us;
      3 520 float32 (64, 55), 9.1 and 4.9 us;
      60 500 (20, 55, 55), 468 and 351 us.
    """
    floats = None
    if x.dtype.kind == "f":  # either float tier
        floats, x = x, x.astype(ints)
    if x.size < _FLOOR_SIZE or x.dtype == object:
        x %= q
        return x
    spare = floats.view(ints) if floats is not None and floats.itemsize == x.itemsize else None
    quo = np.floor_divide(x, q, out=spare)
    quo *= q
    x -= quo
    return x


def fq_matmul(a, b, q: int):
    """a @ b mod q for a 2-D a, or a stack of matrices, and a 2-D or 1-D
    b, or a stack matched to a's, arrays (or nested sequences) of residues
    in [0, q).

    The product runs in _product_dtype(n, q) (n the inner dimension, the
    length of a 1-D b and b.shape[-2] otherwise); the result is a numpy
    array in fq_dtype(n, q).
    """
    b = np.asarray(b)
    n = len(b) if b.ndim == 1 else b.shape[-2]
    dtype = _product_dtype(n, q)
    return _residues(np.asarray(a, dtype=dtype) @ b.astype(dtype, copy=False), q)


def fq_apply(mats, vec, q: int):
    """mats[0] ... mats[-1] vec mod q, the vector carried right to left:
    n x n matrices and a length-n vector of residues in [0, q), arrays in
    fq_dtype(n, q), which the result is in too.

    Every product runs in fq_dtype itself, and the vector is reduced mod q
    only when the next product could leave int64 (the delayed reduction
    of FFLAS-FFPACK, see _product_dtype).  With entries at most B, a
    product's are at most B n (q - 1); from B = q - 1 that stays below
    2^63 for `run` products, the largest j with (q - 1) (n (q - 1))^j <
    2^63 (at least 1), so the vector is reduced after each run of them.
    In the int64 tier a run is a few products; in the object tier it is
    one, which keeps the Python ints small.
    """
    n = len(vec)
    vec = np.array(vec, dtype=fq_dtype(n, q))  # a copy, so the result is always fresh
    grow = n * (q - 1)
    run, bound = 1, (q - 1) * grow
    while run < len(mats) and bound * grow < 2 ** 63:
        run, bound = run + 1, bound * grow
    chain = list(reversed(mats))
    for start in range(0, len(chain), run):
        for mat in chain[start:start + run]:
            vec = mat @ vec
        vec %= q
    return vec


# the stacked row width gens * n from which fq_walk multiplies blocks
_BLOCKED_WIDTH = 256


def fq_walk(mats, picks, vec, q: int):
    """Walks over F_q: row t of the result is
    mats[picks[t, 0]] ... mats[picks[t, -1]] vec mod q.

    mats is a (gens, n, n) array of residues, picks a (batch, steps)
    index array and vec a length-n vector.  The (batch, n) array of
    vectors is carried right to left; each step's images are computed
    exactly in _product_dtype(n, q) and reduced mod q, in int32 on the
    float32 tier (its sums are below 2^24, and int32 divides faster than
    int64).  The result is in fq_dtype(n, q).

    A step's product takes one of two layouts, by the stacked row width
    gens * n:
      below _BLOCKED_WIDTH, stacked: one product of every row with the
        (n, gens * n) block whose column block k is mats[k].T gives every
        generator's image of every row, and a flat take keeps each row's
        image under its own pick;
      from it on, blocked: each row is multiplied by its own pick only.
        _walk_blocks sorts each step's rows into one block per generator,
        so a step is one take, one batched product of the (gens, cap, n)
        blocks with the transposed mats, and one take back to row order.
        A block's spare slots read row 0, but slot[step] names only the
        slots holding rows, so their images never reach the result.
    Stacked computes gens times as many images as blocked, which pays
    gens BLAS calls and two takes per step instead.  With one BLAS
    thread, 64-row walks broke even between gens * n = 120 and 160 at
    gens = 4, 168 and 240 at gens = 12, 240 and 336 at gens = 24, and 320
    and 400 at gens = 40 (CHANGES.md has the table).  At p = 11 (n = 55,
    gens = 12) blocked takes half the time of stacked; on the 4096-row
    sample walks (gens * n = 52) it takes twice as long.
    """
    mats = np.asarray(mats)
    gens, n = mats.shape[0], len(vec)
    dtype = _product_dtype(n, q)
    if gens * n < _BLOCKED_WIDTH:
        stacked = np.asarray(mats.transpose(2, 0, 1).reshape(n, gens * n), dtype=dtype)
        reads = np.arange(len(picks)) * gens + picks.T  # row t * gens + k holds row t's image under k

        def images(vectors, step):
            return (vectors @ stacked).reshape(-1, n).take(reads[step], axis=0)
    else:
        mats_t = np.ascontiguousarray(mats.transpose(0, 2, 1), dtype=dtype)
        slot, fill, cap = _walk_blocks(picks, gens)

        def images(vectors, step):
            blocks = vectors.take(fill[step], axis=0).reshape(gens, cap, n)
            return np.matmul(blocks, mats_t).reshape(-1, n).take(slot[step], axis=0)
    ints = np.int32 if dtype is np.float32 else np.int64
    vectors = np.tile(np.asarray(vec, dtype=dtype), (len(picks), 1))
    for step in reversed(range(picks.shape[1])):
        vectors = np.asarray(_residues(images(vectors, step), q, ints), dtype=dtype)
    return np.asarray(vectors, dtype=fq_dtype(n, q))


def _walk_blocks(picks, gens: int):
    """fq_walk's blocked layout of a (batch, steps) array of picks in
    range(gens): (slot, fill, cap).

    At each step the rows picking generator k fill block k, in row order;
    cap is the largest block.  slot[step, t] is row t's place in the
    flattened (gens * cap) blocks, and fill[step, i] the row that place i
    reads (row 0 for a spare place).  A stable radix argsort of each
    step's picks, cast to the smallest unsigned dtype, orders the rows;
    a bincount of (step, generator) pairs gives the block sizes.
    """
    batch, steps = picks.shape
    by_step = picks.T
    order = np.argsort(by_step.astype(np.min_scalar_type(gens - 1)), axis=1, kind="stable")
    pairs = by_step + gens * np.arange(steps)[:, None]
    counts = np.bincount(pairs.ravel(), minlength=steps * gens).reshape(steps, gens)
    cap = int(counts.max(initial=0))
    first = np.cumsum(counts, axis=1) - counts  # where each block starts in sorted order
    ranked = np.take_along_axis(by_step, order, axis=1)
    place = ranked * cap + np.arange(batch) - np.take_along_axis(first, ranked, axis=1)
    slot = np.empty((steps, batch), dtype=np.intp)
    np.put_along_axis(slot, order, place, axis=1)
    fill = np.zeros((steps, gens * cap), dtype=np.intp)
    np.put_along_axis(fill, place, order, axis=1)
    return slot, fill, cap


def draw_picks(rng, n: int, count: int):
    """`count` indices into range(n) (1 <= n < 2^32) as an intp array:
    the picks, and the final state of the random.Random `rng`, of `count`
    calls rng.choice(range(n)).

    CPython's choice takes the top k = n.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while they are >= n, and
    getrandbits(32 m) is m such words, the first one lowest.  Each round
    draws one word per pick still missing and keeps those below n, so no
    word past the last pick is drawn.
    """
    if not 0 < n < 2 ** 32:
        raise ValueError(f"draw_picks needs 1 <= n < 2^32, got {n}")
    shift = 32 - n.bit_length()
    parts = [np.zeros(0, dtype=np.intp)]
    need = count
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        tops = words >> shift
        kept = tops[tops < n]
        parts.append(kept.astype(np.intp))
        need -= len(kept)
    return np.concatenate(parts)


def fq_rref(rows, q: int):
    """Reduced row echelon form over F_q of the rows (lists or arrays of
    integers that fq_dtype(1, q) holds); returns its nonzero rows as an
    array in that dtype, with no rows for an input with none.

    Each update entry is one product of residues reduced mod q, so int64
    is exact while (q - 1)^2 < 2^63, and Python ints (object) cover
    larger q.  The pivot row is zero left of its column, so each
    elimination touches only the columns from it on.
    """
    mat = np.atleast_2d(np.array(rows, dtype=fq_dtype(1, q))) % q
    rank = 0
    for col in range(mat.shape[1]):
        below = np.flatnonzero(mat[rank:, col])
        if not len(below):
            continue
        piv = rank + below[0]
        mat[[rank, piv]] = mat[[piv, rank]]
        mat[rank, col:] = mat[rank, col:] * pow(int(mat[rank, col]), -1, q) % q
        hit = np.flatnonzero(mat[:, col])
        hit = hit[hit != rank]
        mat[hit, col:] = (mat[hit, col:] - mat[hit, col:col + 1] * mat[rank, col:]) % q
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank]


def bareiss_det(mat: list[list], ring) -> object:
    """Fraction-free determinant over an integral domain.

    The entries are ring elements (CycElem or FqElem) with their own
    operators - and *, and exact_div and is_zero; `ring` supplies only
    .one and .zero.  Division steps are exact by the Bareiss identity.
    """
    n = len(mat)
    if n == 0:
        return ring.one
    a = [list(r) for r in mat]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = ring.zero - det
    return det


def ring_inverse(mat: list[list], ring) -> list[list]:
    """Inverse of a matrix over a commutative ring via adjugate / det,
    with bareiss_det's elements and ring.

    Requires det to be a unit (its inv raises otherwise).
    """
    n = len(mat)
    det = bareiss_det(mat, ring)
    det_inv = det.inv()
    if n == 1:
        return [[det_inv]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = bareiss_det(minor, ring)
            if (i + j) % 2:
                cof = ring.zero - cof
            adj[j][i] = cof * det_inv
    return adj
