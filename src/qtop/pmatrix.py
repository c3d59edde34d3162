"""Projective matrices over the cyclotomic ring.

A PMatrix is a matrix over Z[zeta_{4p}, 1/p], held as one exponent e and
one coefficient-major (deg, n, m) integer tensor num of numerators over
p^e: entry (i, j) is sum_k num[k, i, j] zeta^k / p^e, and the values at
the roots below share that layout, so nothing transposes but entries.
Matrices are square, and an exact vector is one column, m = 1.  e is the
least exponent that makes every numerator integral, and the tensor is
int64 while every |c| < 2^62 and an object array of Python ints
otherwise, so equal matrices have equal tensors.  The canonical CycElem
entries are built only when read.  Quantum representations are
projective, and their anomaly phases are never normalized away silently:
proj_equal compares two matrices up to one global scalar, equal_exact
entry by entry.

There is one product, product(mats) = mats[0] ... mats[-1] over
compatible shapes, and PMatrix.__mul__ is its two-factor case.  It is
multi-modular (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 5).  Modulo a prime q = 1 mod 4p of word size, Phi_4p splits into
deg linear factors: a tensor is evaluated at its deg roots (one product
by the Vandermonde matrix), a product is deg independent matrix products
of such values over F_q, and the inverse Vandermonde matrix interpolates
values back to numerators already reduced mod Phi_4p.  Every product
mod q is linalg.fq_matmul, on its float64 tier as the primes satisfy
width (q - 1)^2 < 2^53 (moduli).

The chain is carried right to left as values at the roots, and lifted
to numerators only when its primes run out; this is the delayed
reduction of linalg.fq_apply, with lifts in place of reductions.  A run
starts from an exact matrix P (the last factor, or the previous run's
product) and the factor M left of it.  Every numerator of M P is at
most n max|M| max|P| c_p in absolute value (n is M's column count and
c_p is product_spread(p)), and that bound sets the run's primes: enough
that their product Q exceeds twice it, so a product of two matrices
takes the primes it always did.  From there the run carries one bound
on the numerators of its whole product X = M_j ... M_1 P, from the
complex embeddings: with N the largest sum of coefficient absolute
values over a row, every coefficient of X is at most
C_p N(P) N(M_1) ... N(M_j), C_p = embedding_spread(p), so the constant
is paid once per run, not once per factor.  A further factor M' joins
while C_p N(P) N(M_1) ... N(M_j) N(M') stays within (Q - 1)/2, and the
run then interpolates and lifts once.  Restarting the bound from exact
numerators keeps the prime count small, as numerators grow far more
slowly than their bounds: the product of the 8-letter word c1 c2 c3 c4
c5 s c3^-1 c1 at p = 17 has 47-bit numerators, and a bound carried
through the whole word asks for 7 primes.  Lifting once per word on
those primes took that rho from 1.57 to 1.93 s (warm letters, one BLAS
thread, a 2-vCPU VM), and a 12-letter word's at p = 13 from 0.15 to
0.31 s and from 104 to 176 MB peak RSS.  A lift on one prime is its
symmetric residue; on several, Garner's method recombines the residues
into balanced mixed-radix digits, and each numerator is assembled in
int64 from its low digits, in Python ints only where a higher digit is
nonzero.  The next run starts from the values the run lifted, at the
primes the two share, divided by the power of p that the lift stripped,
instead of evaluating the lifted product again; this holds while one
prime's values take at most _KEPT_BYTES, and such values are never
stored on the returned matrix.

A matrix that lives long, such as a letter cached by rep, can keep its
values at the roots per prime (keep_values), so that a word evaluates
each letter once per prime rather than once per product; a memory rule
on the size of the values decides which matrices keep them.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CycElem, ResidueSpec, RingSpec, RingUsageError, is_prime, power, ring
from .linalg import _product_dtype, fq_matmul, fq_rref

# int64 tensors hold numerators below this bound, so a sum of two fits
_INT64_BOUND = 2**62

# the most bytes of values at the roots, per prime, that keep_values keeps
_KEPT_BYTES = 1 << 21


@lru_cache(maxsize=None)
def product_spread(p: int) -> int:
    """c_p = max_c sum_{a, b < deg} |[x^c] (x^(a + b) mod Phi_4p)|: the
    largest growth of one coefficient in the reduced product of two
    elements, per unit of max|a| max|b|.  It equals 2 deg - 2 for every p
    from 5 to 19."""
    spec = ring(p)
    deg = spec.degree
    # s = a + b arises from min(s, 2 deg - 2 - s) + 1 pairs (a, b)
    weights = [min(s, 2 * deg - 2 - s) + 1 for s in range(2 * deg - 1)]
    return max(
        sum(w * abs(spec.monomial[s][c]) for s, w in enumerate(weights)) for c in range(deg)
    )


@lru_cache(maxsize=None)
def _conjugation(p: int) -> tuple[np.ndarray, int]:
    """(C, spread): C[c, k] = [x^c] (x^(4p - k) mod Phi_4p), so C num is
    the numerator tensor of the conjugates, and spread = max_c sum_k
    |C[c, k]|."""
    spec = ring(p)
    C = np.array([spec.monomial[-k % spec.m] for k in range(spec.degree)], dtype=np.int64).T
    C.setflags(write=False)
    return C, int(np.abs(C).sum(axis=1).max())


@lru_cache(maxsize=None)
def moduli(p: int, width: int, k: int) -> tuple[int, ...]:
    """The k largest primes q = 1 mod 4p with width (q - 1)^2 < 2^53,
    descending.  Every sum of `width` products of residues mod q is then
    an exact float64 integer: the float64 tier of linalg._product_dtype."""
    if not k:
        return ()
    head = moduli(p, width, k - 1)
    m = 4 * p
    q = head[-1] - m if head else math.isqrt((2**53 - 1) // width) // m * m + 1
    while not is_prime(q):
        q -= m
    return head + (q,)


def prime_count(p: int, width: int, bound: int) -> int:
    """How many of moduli(p, width, .) it takes for their product Q to
    exceed 2 bound, so that the symmetric residues mod Q, |x| <= (Q - 1)/2,
    cover every |x| <= bound."""
    k, Q = 0, 1
    while Q <= 2 * bound:
        k += 1
        Q *= moduli(p, width, k)[-1]
    return k


@lru_cache(maxsize=None)
def embedding_spread(p: int) -> int:
    """C_p = ceil(deg ||T^-1||_inf), T[j, k] = Tr(zeta^(k - j)) the
    integer trace-form Gram matrix of the power basis, so that every
    coefficient of every entry of a product A_1 ... A_j of matrices over
    Z[zeta_4p] is at most C_p N(A_1) ... N(A_j), N the largest sum of
    coefficient absolute values over a row.

    For every complex embedding s, |s(a)| <= ||a||_1 gives
    ||s(A)||_inf <= N(A), and the row-sum norm is submultiplicative, so
    every entry x of the product has |s(x)| <= N(A_1) ... N(A_j).  Its
    coefficients are c = T^-1 t, t_j = Tr(x zeta^-j), and
    |t_j| <= deg max_s |s(x)|.  4p T^-1 is an integer matrix, since the
    different of Z[zeta_4p] divides 4p; it is solved for modulo the first
    of the moduli, read as symmetric residues and checked exactly,
    T (4p T^-1) = 4p I.  C_p equals p - 1 for every p from 5 to 23.
    """
    spec = ring(p)
    m, deg = spec.m, spec.degree
    # Tr(zeta^a) is the trace of multiplication by zeta^a on the power basis
    trace = [sum(spec.monomial[(a + c) % m][c] for c in range(deg)) for a in range(m)]
    T = np.array([[trace[(k - j) % m] for k in range(deg)] for j in range(deg)], dtype=np.int64)
    q, target = moduli(p, deg, 1)[0], m * np.eye(deg, dtype=np.int64)
    scaled = _symmetric_lift([fq_rref(np.hstack([T % q, target]), q)[:, deg:]], (q,))
    if not np.array_equal(T @ scaled, target):
        raise ArithmeticError(f"4p T^-1 is not integral at p = {p}")
    return -(-deg * int(np.abs(scaled).sum(axis=1).max()) // m)


@lru_cache(maxsize=None)
def _vandermonde(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, V^-1) mod q as int64 arrays, V[k, r] = w_r^k over the deg
    roots w_r of Phi_4p in F_q (the primitive 4p-th roots of unity)."""
    m, deg = 4 * p, ring(p).degree
    root = ResidueSpec.for_primes(p, q).root
    roots = [pow(root, t, q) for t in range(1, m) if math.gcd(t, m) == 1]
    V = np.array([[pow(w, k, q) for w in roots] for k in range(deg)], dtype=np.int64)
    return V, fq_rref(np.hstack([V, np.eye(deg, dtype=np.int64)]), q)[:, deg:]


def _evaluate(p: int, num, q: int) -> np.ndarray:
    """The values of a numerator tensor (deg, rows, cols) at the roots of
    Phi_4p mod q, V^T num with the tensor read as (deg, rows cols):
    residues in the same layout, in the dtype that fq_matmul multiplies
    them in (the moduli put every inner dimension up to the chain's width
    on one tier), so that no product copies them again."""
    at = fq_matmul(_vandermonde(p, q)[0].T, num.reshape(len(num), -1) % q, q)
    return at.reshape(num.shape).astype(_product_dtype(num.shape[2], q))


def _interpolate(p: int, q: int, values) -> np.ndarray:
    """The numerator residues mod q, (deg, rows, cols) in int64, whose
    values at the roots are the residues values, in the same layout: one
    product V^-T values by the inverse Vandermonde matrix."""
    flat = values.reshape(len(values), -1)
    return fq_matmul(_vandermonde(p, q)[1].T, flat, q).reshape(values.shape)


def _tensor(values):
    """Nested integer lists (or an integer array) as a read-only tensor:
    int64 while every |c| < 2^62, else object."""
    try:
        num = np.asarray(values, dtype=np.int64)
        wide = num.max() >= _INT64_BOUND or num.min() <= -_INT64_BOUND
    except OverflowError:
        num = np.array(values, dtype=object)
        wide = True
    if wide:
        num = num.astype(object)
    num.setflags(write=False)
    return num


def _numerators(p: int, rows) -> tuple[int, np.ndarray]:
    """(E, num): rows of CycElems over the one denominator p^E, E the
    largest exponent among them.  Only the nonzero entries are converted,
    so a sparse block matrix costs its nonzeros."""
    E = max(x.e for row in rows for x in row)
    where = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if any(x.coeffs)]
    num = np.zeros((ring(p).degree, len(rows), len(rows[0])), dtype=np.int64)
    if where:
        xs = (rows[i][j] for i, j in where)
        scaled = _tensor([x.coeffs if x.e == E else [c * p ** (E - x.e) for c in x.coeffs]
                          for x in xs])
        num = num.astype(scaled.dtype)
        I, J = zip(*where)
        num[:, I, J] = scaled.T
    return E, num


def _symmetric_lift(residues, primes):
    """The x with |x| <= (Q - 1)/2, Q = prod(primes), from x mod each q
    (residues may be a generator, read one prime at a time).

    Garner's method gives x = sum_i d_i M_i, M_i = q_0 ... q_(i-1), with
    balanced digits |d_i| <= (q_i - 1)/2 computed in int64; such a sum is
    exactly the symmetric residue mod Q.  The sum starts from d_0, so on
    one prime it is the symmetric residue itself.  The low digits are
    summed in int64 while M_i stays below 2^62; only the entries with a
    nonzero higher digit take Python ints.
    """
    digits = []
    for q, r in zip(primes, residues):
        for qj, d in zip(primes, digits):
            r = (r - d) * pow(qj, -1, q) % q
        digits.append(np.where(r > q // 2, r - q, r))
        del r  # so the next prime's residues are computed without these
    value, radix, low = digits[0], primes[0], 1
    while low < len(digits) and radix * primes[low] < _INT64_BOUND:
        value += digits[low] * radix
        radix *= primes[low]
        low += 1
    high = digits[low:]
    if high:
        hit = np.any([d != 0 for d in high], axis=0)
        if hit.any():
            big = value[hit].astype(object)
            for q, d in zip(primes[low:], high):
                big = big + d[hit].astype(object) * radix
                radix *= q
            value = value.astype(object)
            value[hit] = big
    return value


def product(mats) -> "PMatrix":
    """mats[0] mats[1] ... mats[-1], over compatible shapes, carried right
    to left in runs of products at the roots (see the module docstring);
    one matrix is returned as it is."""
    mats = list(mats)
    for A, B in zip(mats, mats[1:]):
        if A.p != B.p or A.num.shape[2] != B.num.shape[1]:
            raise RingUsageError("incompatible matrices")
    out, values = mats.pop(), {}
    p, deg = out.p, len(out.num)
    width = max([deg] + [M.num.shape[2] for M in mats])
    while mats:
        if not (out.bounds[0] and mats[-1].bounds[0]):  # a zero factor
            shape = (deg, mats[0].num.shape[1], out.num.shape[2])
            return PMatrix(p, 0, np.zeros(shape, dtype=np.int64))
        out, values = _run(width, mats, out, values)
    return out


def _run(width: int, mats: list, P: "PMatrix", values: dict) -> tuple["PMatrix", dict]:
    """(X, at): the product X = mats[-j] ... mats[-1] P of one run, lifted,
    with its j factors popped from mats, and X's values at the roots per
    prime of the run, or none (see below).  values holds P's values at
    some primes, which are read in place of P.at_root.

    The run's primes cover the bound n max|M| max|P| c_p of its first
    product M P.  From there the bound C_p N(P) N(M) ... on the whole
    product grows by N(M') with each further factor M', which joins while
    the bound stays within (Q - 1)/2.  When another run follows and one
    prime's values of X take at most _KEPT_BYTES, they are returned for
    every prime, scaled by p^-k where the lift stripped p^k; otherwise
    the residues are computed one prime at a time, as _symmetric_lift
    reads them, and only one prime's values are held at once.
    """
    p = P.p
    run = [mats.pop()]
    start = run[0].num.shape[2] * run[0].bounds[0] * P.bounds[0] * product_spread(p)
    primes = moduli(p, width, prime_count(p, width, start))
    half = (math.prod(primes) - 1) // 2
    bound = embedding_spread(p) * run[0].bounds[1] * P.bounds[1]
    while mats and mats[-1].bounds[1] * bound <= half:
        run.append(mats.pop())
        bound *= run[-1].bounds[1]
    carry = bool(mats) and len(P.num) * run[-1].n * P.num.shape[2] * 8 <= _KEPT_BYTES
    at = {}

    def residue(q):
        v = values[q] if q in values else P.at_root(q)
        for M in run:
            v = fq_matmul(M.at_root(q), v, q)
        if carry:
            at[q] = v
        return _interpolate(p, q, v)

    e = P.e + sum(M.e for M in run)
    X = PMatrix(p, e, _symmetric_lift(map(residue, primes), primes))
    if X.e < e:
        at = {q: v * pow(p, X.e - e, q) % q for q, v in at.items()}
    return X, at


class PMatrix:
    """A matrix over Z[zeta_{4p}, 1/p]: numerators num over p^e."""

    def __init__(self, p: int, e: int, num):
        while e and not (num % p).any():
            num, e = num // p, e - 1
        self.p, self.e, self.num = p, e, _tensor(num)
        self._kept = None  # values at the roots per prime, for keep_values

    @property
    def n(self) -> int:
        return self.num.shape[1]

    @cached_property
    def entries(self) -> tuple[tuple[CycElem, ...], ...]:
        p, e = self.p, self.e
        rows = self.num.transpose(1, 2, 0).tolist()
        return tuple(tuple(CycElem.make(p, c, e) for c in row) for row in rows)

    @cached_property
    def bounds(self) -> tuple[int, int]:
        """(max|c|, N): the largest numerator coefficient in absolute value,
        and the largest sum of them over one row's entries."""
        a = np.abs(self.num)
        top = int(a.max())
        if a.dtype != object and top * a.shape[0] * a.shape[2] >= 2**63:
            a = a.astype(object)
        return top, int(a.sum(axis=(0, 2)).max())

    def keep_values(self) -> "PMatrix":
        """Mark a matrix that lives long, such as a cached letter: its
        values at the roots are then kept per prime, where one prime's take
        at most _KEPT_BYTES.  Returns the matrix.

        One prime's values are n^2 deg float64s for a genus-2 letter: 18 KB
        at p = 7, 0.5 MB at p = 11, 1.6 MB at p = 13 (n = 91) and 10.7 MB
        at p = 17 (n = 204).  The mapping-torus and gluing invariants of
        12-letter words with warm letters (one BLAS thread, a 2-vCPU VM)
        took, per word, without and with kept values: 1.56 and 1.09 ms at
        p = 7; 39 and 20 ms at p = 11, peak RSS +16 MB; 169 and 96 ms at
        p = 13, +53 MB; 2.3 and 1.3 s at p = 17, but a peak of 747 MB
        against 370, where a one-shot 8-letter torus had peaked at 310 MB.
        The 2 MB bound keeps them through p = 13 and not from p = 17.
        """
        if self.num.size * 8 <= _KEPT_BYTES:
            self._kept = {}
        return self

    def at_root(self, q: int) -> np.ndarray:
        """The values at the roots mod q, as _evaluate gives them; kept per
        prime after keep_values."""
        if self._kept is None:
            return _evaluate(self.p, self.num, q)
        if q not in self._kept:
            self._kept[q] = _evaluate(self.p, self.num, q)
            self._kept[q].setflags(write=False)
        return self._kept[q]

    @staticmethod
    def from_rows(p: int, rows) -> "PMatrix":
        return PMatrix(p, *_numerators(p, rows))

    @staticmethod
    def identity(p: int, n: int) -> "PMatrix":
        return PMatrix.diagonal(p, [CycElem.one(p)] * n)

    @staticmethod
    def diagonal(p: int, diag: list[CycElem]) -> "PMatrix":
        E, col = _numerators(p, [[x] for x in diag])
        return PMatrix(p, E, col * np.eye(len(diag), dtype=col.dtype))

    def __eq__(self, other):
        return isinstance(other, PMatrix) and self.equal_exact(other)

    def __mul__(self, other: "PMatrix") -> "PMatrix":
        return product((self, other))

    def __pow__(self, k: int) -> "PMatrix":
        if k < 0:
            raise RingUsageError("PMatrix powers need k >= 0")
        return power(self, k) if k else PMatrix.identity(self.p, self.n)

    def scale(self, c: CycElem) -> "PMatrix":
        return product([PMatrix.diagonal(self.p, [c] * self.n), self])

    def trace(self) -> CycElem:
        diagonal = self.num.diagonal(axis1=1, axis2=2).tolist()
        return CycElem.make(self.p, [sum(c) for c in diagonal], self.e)

    def conj_transpose(self) -> "PMatrix":
        """The conjugate transpose: conjugation zeta -> zeta^-1 is one
        integer matrix C on the coefficient axis, then the last two axes
        swap.  Each output coefficient sums at most `spread` of the input
        ones, which decides whether int64 holds it."""
        C, spread = _conjugation(self.p)
        num = self.num
        if num.dtype != object and self.bounds[0] * spread >= _INT64_BOUND:
            num = num.astype(object)
        return PMatrix(self.p, self.e, np.tensordot(C, num, axes=1).transpose(0, 2, 1))

    def equal_exact(self, other: "PMatrix") -> bool:
        return (self.p, self.e) == (other.p, other.e) and np.array_equal(self.num, other.num)

    def proj_equal(self, other: "PMatrix") -> bool:
        """Equality up to one global scalar, decided by cross-multiplication:
        with the same nonzero pattern, b0 self = a0 other for the first
        nonzero entries a0 of self and b0 of other."""
        if self.p != other.p or self.num.shape != other.num.shape:
            return False
        support = self.num.any(axis=0)
        if not np.array_equal(support, other.num.any(axis=0)):
            return False
        if not support.any():
            return True  # both zero
        i, j = np.argwhere(support)[0]
        a0, b0 = (CycElem.make(M.p, M.num[:, i, j].tolist(), M.e) for M in (self, other))
        return self.scale(b0).equal_exact(other.scale(a0))

    def reduce(self, r: ResidueSpec) -> tuple[tuple[int, ...], ...]:
        """Every entry's image in F_q (zeta -> r.root): one product of the
        root's powers with the numerators, times p^-e mod q."""
        if r.p != self.p:
            raise RingUsageError("matrix and residue spec use different p")
        q, deg = r.q, len(self.num)
        at = fq_matmul([[pow(r.root, k, q) for k in range(deg)]], self.num.reshape(deg, -1) % q, q)
        at = at * pow(self.p, -self.e, q) % q
        return tuple(map(tuple, at.reshape(self.num.shape[1:]).tolist()))


class ExactRing(RingSpec):
    """Z[zeta_{4p}, 1/p] as a scalar ring: a RingSpec's CycElems, and
    PMatrix matrices, an exact vector being one column."""

    def matrix(self, rows) -> PMatrix:
        return PMatrix.from_rows(self.p, rows)

    def diagonal(self, xs) -> PMatrix:
        return PMatrix.diagonal(self.p, list(xs))

    def vector(self, xs) -> PMatrix:
        return self.matrix([[x] for x in xs])

    product = staticmethod(product)

    @staticmethod
    def apply(mats, vec: PMatrix) -> PMatrix:
        """mats[0] ... mats[-1] vec: the vector is the chain's last factor,
        so the chain runs on one column, and lifts only when its primes
        run out."""
        return product([*mats, vec])

    @staticmethod
    def column(vec: PMatrix) -> tuple[CycElem, ...]:
        return tuple(row[0] for row in vec.entries)


@lru_cache(maxsize=None)
def scalar_ring(R):
    """The scalar ring that code generic over its scalars is given: an
    ExactRing for a prime p, or the ResidueSpec R itself.

    Either provides p; zero, one and root_power(k) = zeta^k, its elements
    (CycElem or FqElem); matrix(rows), diagonal(xs) and vector(xs), its
    dense matrix type (PMatrix, or read-only numpy arrays of residues);
    product(mats), the one product of matrices, mats[0] ... mats[-1]
    (exactly, pmatrix's chain product; over F_q, linalg.fq_matmul left
    to right); apply(mats, vec), the product mats[0] ... mats[-1] vec
    carried right to left as a vector (exactly, the chain with vec as
    its last factor; over F_q, linalg.fq_apply); and column(vec), the
    coordinates of a vector as elements.  Element arithmetic is the
    elements' own operators.
    """
    return R if isinstance(R, ResidueSpec) else ExactRing(R)
