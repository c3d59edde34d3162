"""Projective matrices over the cyclotomic ring.

A PMatrix is a matrix over Z[zeta_{4p}, 1/p], held as one exponent e
and one (n, m, deg) integer tensor num of numerators over p^e: entry
(i, j) is sum_k num[i, j, k] zeta^k / p^e.  Matrices are square, and an
exact vector is one column, m = 1.  e is the least exponent that makes
every numerator integral, and the tensor is int64 while every
|c| < 2^62 and an object array of Python ints otherwise, so equal
matrices have equal tensors.  The canonical CycElem entries are built
only when read.  Quantum representations are projective, and their
anomaly phases are never normalized away silently: proj_equal compares
two matrices up to one global scalar, equal_exact entry by entry.

There is one product, of a square matrix by a matrix or a column, and it
is multi-modular (von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 5).  Every numerator of a product is at most n max|a| max|b| c_p in
absolute value (c_p is product_spread(p)), so it is fixed by its
residues modulo enough primes q = 1 mod 4p of word size.  Modulo such a
q, Phi_4p splits into deg linear factors: both tensors are evaluated at
its deg roots (one product by the Vandermonde matrix), multiplied as deg
independent matrix products over F_q, and interpolated back by the
inverse Vandermonde matrix, which gives the product already reduced mod
Phi_4p.  Every product runs on linalg.fq_matmul's float64 tier.
Garner's method recombines the residues into balanced mixed-radix
digits, and each numerator is assembled in int64 from its low digits, in
Python ints only where a higher digit is nonzero.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CycElem, ResidueSpec, RingSpec, RingUsageError, is_prime, power, ring
from .linalg import fq_dtype, fq_matmul, fq_rref

# int64 tensors hold numerators below this bound, so a sum of two fits
_INT64_BOUND = 2**62


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
def _vandermonde(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(V, V^-1) mod q, V[k, r] = w_r^k over the deg roots w_r of Phi_4p
    in F_q (the primitive 4p-th roots of unity)."""
    m, deg = 4 * p, ring(p).degree
    root = ResidueSpec.for_primes(p, q).root
    roots = [pow(root, t, q) for t in range(1, m) if math.gcd(t, m) == 1]
    V = np.array([[pow(w, k, q) for w in roots] for k in range(deg)], dtype=np.int64)
    augmented = np.hstack([V, np.eye(deg, dtype=np.int64)])
    return V, fq_rref(augmented, q)[:, deg:]


def _max_abs(num) -> int:
    return int(np.abs(num).max())


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
    num = np.zeros((len(rows), len(rows[0]), ring(p).degree), dtype=np.int64)
    if where:
        xs = (rows[i][j] for i, j in where)
        scaled = _tensor([x.coeffs if x.e == E else [c * p ** (E - x.e) for c in x.coeffs]
                          for x in xs])
        num = num.astype(scaled.dtype)
        num[tuple(zip(*where))] = scaled
    return E, num


def _symmetric_lift(residues, primes):
    """The x with |x| <= (Q - 1)/2, Q = prod(primes), from x mod each q
    (residues may be a generator, read one prime at a time).

    Garner's method gives x = sum_i d_i M_i, M_i = q_0 ... q_(i-1), with
    balanced digits |d_i| <= (q_i - 1)/2 computed in int64; such a sum is
    exactly the symmetric residue mod Q.  The low digits are summed in
    int64 while M_i stays below 2^62; only the entries with a nonzero
    higher digit take Python ints.
    """
    digits = []
    for q, r in zip(primes, residues):
        for qj, d in zip(primes, digits):
            r = (r - d) * pow(qj, -1, q) % q
        digits.append(np.where(r > q // 2, r - q, r))
    value, radix, low = np.zeros_like(digits[0]), 1, 0
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


def _product(p: int, a, b):
    """Numerators of a b reduced mod Phi_4p, for integer tensors a of
    shape (rows, n, deg) and b of shape (n, m, deg), by evaluation at the
    roots of Phi_4p modulo prime_count primes."""
    rows, (n, m, deg) = a.shape[0], b.shape
    bound = n * _max_abs(a) * _max_abs(b) * product_spread(p)
    if not bound:
        return np.zeros((rows, m, deg), dtype=np.int64)
    width = max(n, deg)
    primes = moduli(p, width, prime_count(p, width, bound))

    def residue(q):
        V, Vinv = _vandermonde(p, q)
        # (deg, rows, cols): the tensor's values at each root
        at, bt = (
            fq_matmul((x % q).reshape(-1, deg), V, q).reshape(x.shape).transpose(2, 0, 1)
            for x in (a, b)
        )
        values = fq_matmul(at, bt, q).transpose(1, 2, 0).reshape(-1, deg)
        return fq_matmul(values, Vinv, q).reshape(rows, m, deg)

    return _symmetric_lift(map(residue, primes), primes)


class PMatrix:
    """A matrix over Z[zeta_{4p}, 1/p]: numerators num over p^e."""

    def __init__(self, p: int, e: int, num):
        while e and not (num % p).any():
            num, e = num // p, e - 1
        self.p, self.e, self.num = p, e, _tensor(num)

    @property
    def n(self) -> int:
        return self.num.shape[0]

    @cached_property
    def entries(self) -> tuple[tuple[CycElem, ...], ...]:
        p, e = self.p, self.e
        return tuple(tuple(CycElem.make(p, c, e) for c in row) for row in self.num.tolist())

    @staticmethod
    def from_rows(p: int, rows) -> "PMatrix":
        return PMatrix(p, *_numerators(p, rows))

    @staticmethod
    def identity(p: int, n: int) -> "PMatrix":
        num = np.zeros((n, n, ring(p).degree), dtype=np.int64)
        num[range(n), range(n), 0] = 1
        return PMatrix(p, 0, num)

    @staticmethod
    def diagonal(p: int, diag: list[CycElem]) -> "PMatrix":
        zero = CycElem.zero(p)
        n = len(diag)
        return PMatrix.from_rows(
            p, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other):
        return isinstance(other, PMatrix) and self.equal_exact(other)

    def __mul__(self, other: "PMatrix") -> "PMatrix":
        if self.p != other.p or self.num.shape[1] != other.num.shape[0]:
            raise RingUsageError("incompatible matrices")
        return PMatrix(self.p, self.e + other.e, _product(self.p, self.num, other.num))

    def __pow__(self, k: int) -> "PMatrix":
        if k < 0:
            raise RingUsageError("PMatrix powers need k >= 0")
        return power(self, k) if k else PMatrix.identity(self.p, self.n)

    def scale(self, c: CycElem) -> "PMatrix":
        return PMatrix.from_rows(self.p, [[c * x for x in row] for row in self.entries])

    def trace(self) -> CycElem:
        return CycElem.make(self.p, [sum(c) for c in self.num.diagonal().tolist()], self.e)

    def conj_transpose(self) -> "PMatrix":
        rows = [[x.conjugate() for x in col] for col in zip(*self.entries)]
        return PMatrix.from_rows(self.p, rows)

    def equal_exact(self, other: "PMatrix") -> bool:
        return (self.p, self.e) == (other.p, other.e) and np.array_equal(self.num, other.num)

    def proj_equal(self, other: "PMatrix") -> bool:
        """Equality up to one global scalar, decided by cross-multiplication:
        with the same nonzero pattern, b0 self = a0 other for the first
        nonzero entries a0 of self and b0 of other."""
        if self.p != other.p or self.num.shape != other.num.shape:
            return False
        support = self.num.any(axis=2)
        if not np.array_equal(support, other.num.any(axis=2)):
            return False
        if not support.any():
            return True  # both zero
        i, j = np.argwhere(support)[0]
        return self.scale(other.entries[i][j]).equal_exact(other.scale(self.entries[i][j]))

    def reduce(self, r: ResidueSpec) -> tuple[tuple[int, ...], ...]:
        """Every entry's image in F_q (zeta -> r.root): the numerators
        evaluated by Horner's rule along the coefficient axis, times
        p^-e mod q."""
        if r.p != self.p:
            raise RingUsageError("matrix and residue spec use different p")
        q, dtype = r.q, fq_dtype(1, r.q)
        num = (self.num.astype(object) if dtype is object else self.num) % q
        acc = np.zeros(num.shape[:2], dtype=dtype)
        for k in reversed(range(num.shape[2])):
            acc = (acc * r.root % q + num[:, :, k]) % q
        return tuple(map(tuple, (acc * pow(self.p, -self.e, q) % q).tolist()))


class ExactRing(RingSpec):
    """Z[zeta_{4p}, 1/p] as a scalar ring: a RingSpec's CycElems, and
    PMatrix matrices, an exact vector being one column."""

    def matrix(self, rows) -> PMatrix:
        return PMatrix.from_rows(self.p, rows)

    def diagonal(self, xs) -> PMatrix:
        return PMatrix.diagonal(self.p, list(xs))

    def vector(self, xs) -> PMatrix:
        return self.matrix([[x] for x in xs])

    @staticmethod
    def mat_mul(A: PMatrix, B: PMatrix) -> PMatrix:
        return A * B

    @staticmethod
    def apply(mats, vec: PMatrix) -> PMatrix:
        for M in reversed(mats):
            vec = M * vec
        return vec

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
    mat_mul(A, B), the one product of two matrices; apply(mats, vec), the
    product mats[0] ... mats[-1] vec carried right to left as a vector;
    and column(vec), the coordinates of a vector as elements.  Element
    arithmetic is the elements' own operators.
    """
    return R if isinstance(R, ResidueSpec) else ExactRing(R)
