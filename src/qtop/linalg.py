"""Exact integer and finite-field linear algebra helpers.

The exact and lattice helpers (HNF, Smith form, Bareiss, the F_q
echelon fq_rref and FqSpan) work on plain Python ints (arbitrary
precision) or on ring elements supplied by the caller, so results are
exact; their matrices are lists of lists, rows first.  F_q matrices
elsewhere are numpy arrays of residues in fq_dtype, and fq_matmul and
fq_walk are the one F_q product and walk kernel, computing in a dtype
chosen from n and q so that every product sum is exact (the tiers are
listed in _product_dtype).
"""

from __future__ import annotations

import numpy as np


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the canonical basis: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows dropped, rows ordered by pivot column.
    """
    if not rows:
        return []
    n = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(n):
        carrier = None
        rest = []
        for r in work:
            if r[col] != 0:
                if carrier is None:
                    carrier = r
                else:
                    g, x, y = _xgcd(carrier[col], r[col])
                    a_div = carrier[col] // g
                    b_div = r[col] // g
                    new_carrier = [x * u + y * v for u, v in zip(carrier, r)]
                    new_rest = [b_div * u - a_div * v for u, v in zip(carrier, r)]
                    carrier = new_carrier
                    if any(new_rest):
                        rest.append(new_rest)
            else:
                rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-u for u in carrier]
            basis.append(carrier)
        work = rest
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


def hnf_solve(basis: list[list[int]], target: list[int]) -> list[int] | None:
    """Express `target` as an integer combination of HNF `basis` rows.

    Returns the coefficient vector, or None if target is not in the lattice.
    """
    coeffs = []
    t = list(target)
    pivots = [next(j for j, u in enumerate(r) if u != 0) for r in basis]
    for r, pc in zip(basis, pivots):
        if t[pc] % r[pc] != 0:
            return None
        q = t[pc] // r[pc]
        coeffs.append(q)
        if q:
            t = [u - q * v for u, v in zip(t, r)]
    if any(t):
        return None
    return coeffs


def lattice_contains(basis: list[list[int]], target: list[int]) -> bool:
    return hnf_solve(basis, target) is not None


def snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of the matrix (Smith form)."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return []
    m, n = len(mat), len(mat[0])
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if mat[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        mat[top], mat[i0] = mat[i0], mat[top]
        for r in mat:
            r[top], r[j0] = r[j0], r[top]
        while True:
            # clear column `top`; plain subtraction when the pivot divides,
            # an xgcd combine otherwise (strictly shrinking the pivot)
            changed = False
            for i in range(top + 1, m):
                v = mat[i][top]
                if v == 0:
                    continue
                piv_val = mat[top][top]
                if v % piv_val == 0:
                    qq = v // piv_val
                    mat[i] = [u - qq * w for u, w in zip(mat[i], mat[top])]
                else:
                    g, x, y = _xgcd(piv_val, v)
                    a_div, b_div = piv_val // g, v // g
                    r_top, r_i = mat[top], mat[i]
                    mat[top] = [x * u + y * w for u, w in zip(r_top, r_i)]
                    mat[i] = [b_div * u - a_div * w for u, w in zip(r_top, r_i)]
                    changed = True
            # clear row `top`
            for j in range(top + 1, n):
                v = mat[top][j]
                if v == 0:
                    continue
                piv_val = mat[top][top]
                if v % piv_val == 0:
                    qq = v // piv_val
                    for r in mat:
                        r[j] -= qq * r[top]
                else:
                    g, x, y = _xgcd(piv_val, v)
                    a_div, b_div = piv_val // g, v // g
                    for r in mat:
                        u, w = r[top], r[j]
                        r[top] = x * u + y * w
                        r[j] = b_div * u - a_div * w
                    changed = True
            if not changed and all(mat[i][top] == 0 for i in range(top + 1, m)):
                break
        # enforce divisibility d_top | all remaining entries
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if mat[i][j] % mat[top][top] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            mat[top] = [u + v for u, v in zip(mat[top], mat[bad])]
            continue
        d = abs(mat[top][top])
        if d != 0:
            diag.append(d)
        top += 1
    return diag


def fq_rref(rows: list[list[int]], q: int) -> list[list[int]]:
    """Reduced row echelon form over F_q; returns the nonzero rows."""
    mat = [[u % q for u in r] for r in rows]
    n = len(mat[0]) if mat else 0
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(u * inv) % q for u in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(u - c * v) % q for u, v in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return [r for r in mat[:rank]]


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


def _residues(x, q: int):
    """x mod q for exact products x, as int64 (or object) residues."""
    if x.dtype.kind == "f":  # either float tier
        x = x.astype(np.int64)
    return x % q


def fq_matmul(a, b, q: int):
    """a @ b mod q for a 2-D a and a 2-D or 1-D b, arrays (or nested
    sequences) of residues in [0, q).

    The product runs in _product_dtype(n, q) (n = len(b), the inner
    dimension); the result is a numpy array in fq_dtype(n, q).
    """
    dtype = _product_dtype(len(b), q)
    return _residues(np.asarray(a, dtype=dtype) @ np.asarray(b, dtype=dtype), q)


def fq_walk(mats, picks, vec, q: int):
    """Walks over F_q: row t of the result is
    mats[picks[t, 0]] ... mats[picks[t, -1]] vec mod q.

    mats is a (generators, n, n) array of residues, picks a (batch, steps)
    index array and vec a length-n vector.  The (batch, n) array of
    vectors is carried right to left.  The generators are laid out once as
    an (n, generators * n) block whose column block k is mats[k].T, so
    each step is one product giving every generator's image of every
    vector (one BLAS call on the float tiers of _product_dtype); each row
    then keeps the image under its own pick, and only that is reduced mod
    q.  The result is in fq_dtype(n, q).
    """
    mats = np.asarray(mats)
    gens, n = mats.shape[0], len(vec)
    dtype = _product_dtype(n, q)
    stacked = np.asarray(mats.transpose(2, 0, 1).reshape(n, gens * n), dtype=dtype)
    batch = np.arange(len(picks))
    vectors = np.tile(np.asarray(vec, dtype=dtype), (len(picks), 1))
    for step in reversed(range(picks.shape[1])):
        every = (vectors @ stacked).reshape(len(picks), gens, n)
        vectors = np.asarray(_residues(every[batch, picks[:, step]], q), dtype=dtype)
    return np.asarray(vectors, dtype=fq_dtype(n, q))


def fq_rank(rows: list[list[int]], q: int) -> int:
    return len(fq_rref(rows, q))


class FqSpan:
    """Incremental span of vectors over F_q (online Gaussian elimination)."""

    def __init__(self, q: int):
        self.q = q
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec: list[int]) -> bool:
        """Insert `vec`; returns True if it enlarged the span."""
        q = self.q
        v = [u % q for u in vec]
        for r, pc in zip(self.rows, self.pivots):
            if v[pc]:
                c = v[pc]
                v = [(u - c * w) % q for u, w in zip(v, r)]
        piv = next((j for j, u in enumerate(v) if u), None)
        if piv is None:
            return False
        inv = pow(v[piv], q - 2, q)
        self.rows.append([(u * inv) % q for u in v])
        self.pivots.append(piv)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def bareiss_det(mat: list[list], ring) -> object:
    """Fraction-free determinant over an integral domain.

    `ring` must provide .one, .zero, mul(a,b), sub(a,b), exact_div(a,b),
    and is_zero(a), as a cyclotomic.ScalarRing does.  Division steps are
    exact by the Bareiss identity.
    """
    n = len(mat)
    if n == 0:
        return ring.one
    a = [list(r) for r in mat]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if ring.is_zero(a[k][k]):
            swap = next((i for i in range(k + 1, n) if not ring.is_zero(a[i][k])), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(ring.mul(a[i][j], a[k][k]), ring.mul(a[i][k], a[k][j]))
                a[i][j] = ring.exact_div(num, prev)
            a[i][k] = ring.zero
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = ring.sub(ring.zero, det)
    return det


def ring_inverse(mat: list[list], ring) -> list[list]:
    """Inverse of a matrix over a commutative ring via adjugate / det.

    Requires det to be a unit (ring.inv raises otherwise).
    """
    n = len(mat)
    det = bareiss_det(mat, ring)
    det_inv = ring.inv(det)
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
                cof = ring.sub(ring.zero, cof)
            adj[j][i] = ring.mul(cof, det_inv)
    return adj
