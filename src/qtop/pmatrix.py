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
starts from an exact matrix X (the last factor, or the previous run's
product) and the factor M left of it.  Every numerator of M X is at
most n max|M| max|X| c_p in absolute value (n is M's column count and
c_p is product_spread(p)), and that bound sets the run's primes: enough
that their product Q exceeds twice it, so a product of two matrices
takes the primes it always did.  From there the run carries one bound,
the L1 form: with N the largest sum of coefficient absolute values over
a row and K = l1_spread(p), N(A B) <= K N(A) N(B), and N bounds every
numerator.  The bound starts at K N(M) N(X), each further factor M'
multiplies it by K N(M'), and M' joins the run while it stays within
(Q - 1)/2.  The run then interpolates and lifts once.  Carrying the
max-coefficient bound as well, and taking the smaller, scheduled the
same lifts on the same primes for 900 RT chains of the exact
benchmark's p = 7 words, for 12-letter words at p = 11 and 13, and for
three words at p = 17.  Restarting the bound from exact numerators
keeps the prime count small, as numerators grow far more slowly than
their bounds: the product of the 8-letter word c1 c2 c3 c4 c5 s c3^-1
c1 at p = 17 has 47-bit numerators, and a bound carried through the
whole word asks for 7 primes.  Lifting once per word on those primes
took that rho from 1.57 to 1.93 s (warm letters, one BLAS thread, a
2-vCPU VM), and a 12-letter word's at p = 13 from 0.15 to 0.31 s and
from 104 to 176 MB peak RSS.  Garner's method recombines the residues into balanced mixed-radix
digits, and each numerator is assembled in int64 from its low digits,
in Python ints only where a higher digit is nonzero.

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
from .linalg import _product_dtype, fq_dtype, fq_matmul, fq_rref

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
def l1_spread(p: int) -> int:
    """K = max_s ||x^s mod Phi_4p||_1 over s <= 2 deg - 2, so that
    ||a b mod Phi_4p||_1 <= K ||a||_1 ||b||_1 for every pair of elements.
    It equals p - 1 for every p from 5 to 19."""
    spec = ring(p)
    return max(sum(map(abs, spec.monomial[s])) for s in range(2 * spec.degree - 1))


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
    """The values of a numerator tensor (rows, cols, deg) at the roots of
    Phi_4p mod q, one product by the Vandermonde matrix: residues in a
    contiguous (deg, rows, cols) array, in the dtype that fq_matmul
    multiplies them in (the moduli put every inner dimension up to the
    chain's width on one tier), so that no product copies them again."""
    rows, cols, deg = num.shape
    at = fq_matmul(num.reshape(-1, deg) % q, _vandermonde(p, q)[0], q)
    dtype = _product_dtype(cols, q)
    return np.ascontiguousarray(at.reshape(rows, cols, deg).transpose(2, 0, 1), dtype=dtype)


def _interpolate(p: int, q: int, values) -> np.ndarray:
    """The numerator residues mod q, (rows, cols, deg) in int64, whose
    values at the roots are the residues values (deg, rows, cols): one
    product by the inverse Vandermonde matrix."""
    deg, rows, cols = values.shape
    flat = values.transpose(1, 2, 0).reshape(-1, deg)
    return fq_matmul(flat, _vandermonde(p, q)[1], q).reshape(rows, cols, deg)


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


def product(mats) -> "PMatrix":
    """mats[0] mats[1] ... mats[-1], over compatible shapes, carried right
    to left in runs of products at the roots (see the module docstring);
    one matrix is returned as it is."""
    mats = list(mats)
    for A, B in zip(mats, mats[1:]):
        if A.p != B.p or A.num.shape[1] != B.num.shape[0]:
            raise RingUsageError("incompatible matrices")
    out = mats.pop()
    p, deg = out.p, out.num.shape[2]
    width = max([deg] + [M.num.shape[1] for M in mats])
    while mats:
        if not (out.bounds[0] and mats[-1].bounds[0]):  # a zero factor
            shape = (mats[0].num.shape[0], out.num.shape[1], deg)
            return PMatrix(p, 0, np.zeros(shape, dtype=np.int64))
        out = _run(width, mats, out)
    return out


def _run(width: int, mats: list, P: "PMatrix") -> "PMatrix":
    """The product mats[-j] ... mats[-1] P of one run, lifted, with its j
    factors popped from mats.

    The run's primes cover the bound n max|M| max|P| c_p of its first
    product M P.  From there one bound N >= N(M ... P) grows to K N(M') N
    with each further factor M', which joins while N stays within
    (Q - 1)/2.  The residues are computed one prime at a time, as
    _symmetric_lift reads them, so only one prime's values are held at
    once.
    """
    p = P.p
    K = l1_spread(p)
    run = [mats.pop()]
    start = run[0].num.shape[1] * run[0].bounds[0] * P.bounds[0] * product_spread(p)
    primes = moduli(p, width, prime_count(p, width, start))
    half = (math.prod(primes) - 1) // 2
    bound = K * run[0].bounds[1] * P.bounds[1]
    while mats and K * mats[-1].bounds[1] * bound <= half:
        run.append(mats.pop())
        bound *= K * run[-1].bounds[1]

    def residue(q):
        values = P.at_root(q)
        for M in run:
            values = fq_matmul(M.at_root(q), values, q)
        return _interpolate(p, q, values)

    e = P.e + sum(M.e for M in run)
    return PMatrix(p, e, _symmetric_lift(map(residue, primes), primes))


class PMatrix:
    """A matrix over Z[zeta_{4p}, 1/p]: numerators num over p^e."""

    def __init__(self, p: int, e: int, num):
        while e and not (num % p).any():
            num, e = num // p, e - 1
        self.p, self.e, self.num = p, e, _tensor(num)
        self._kept = None  # values at the roots per prime, for keep_values

    @property
    def n(self) -> int:
        return self.num.shape[0]

    @cached_property
    def entries(self) -> tuple[tuple[CycElem, ...], ...]:
        p, e = self.p, self.e
        return tuple(tuple(CycElem.make(p, c, e) for c in row) for row in self.num.tolist())

    @cached_property
    def bounds(self) -> tuple[int, int]:
        """(max|c|, N): the largest numerator coefficient in absolute value,
        and the largest sum of them over one row's entries."""
        a = np.abs(self.num)
        top = int(a.max())
        if a.dtype != object and top * a.shape[1] * a.shape[2] >= 2**63:
            a = a.astype(object)
        return top, int(a.sum(axis=(1, 2)).max())

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
        return product((self, other))

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
