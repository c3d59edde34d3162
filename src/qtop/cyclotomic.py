"""Exact arithmetic in the localized cyclotomic ring Z[zeta, 1/p].

For an odd prime p >= 5 we work with zeta a primitive m-th root of unity,
m = 4p, in the power basis 1, zeta, ..., zeta^(phi(m)-1), phi(m) = 2(p-1).
The conductor 4 factor keeps a primitive fourth root available, so that
sqrt(-p) (hence the S^3 normalization) exists uniformly for all p.

Distinguished elements:
    A = zeta^2   primitive 2p-th root (the evaluation point of the skein
                 theory), u = A^2 a primitive p-th root, i = zeta^p.

Elements carry an integer coefficient vector together with a denominator
exponent e, meaning division by p^e; only p is ever inverted.

Code that is generic over its scalars takes a ring R: a prime p names
the exact ring Z[zeta_{4p}, 1/p] (its RingSpec), a ResidueSpec names the
residue field F_q with zeta -> root.  Both are ScalarRings, and their
elements (CycElem, FqElem) share the operators + - * ** and the methods
inv, exact_div and is_zero.  Reduction Z[zeta, 1/p] -> F_q is a ring
homomorphism, so a formula evaluated over F_q equals the reduction of
the same formula evaluated exactly whenever every inverse it takes is of
a unit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np


class RingUsageError(ValueError):
    """Operands constructed over different primes, or malformed input."""


class NotAUnitError(ArithmeticError):
    """Inversion requested for an element that is not a unit in Z[zeta, 1/p]."""


class InexactDivisionError(ArithmeticError):
    """An exact ring division failed (quotient not in Z[zeta, 1/p])."""


def split_p_part(n: int, p: int) -> tuple[int, int]:
    """(k, n / p^k) for the largest k with p^k dividing the nonzero n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class ScalarRing:
    """A ring of scalars for the skein constants and the twist conjugators.

    Subclasses provide p, zero, one, root_power(k) = zeta^k, matrix(rows),
    diagonal(xs) and vector(xs) (their dense matrix and vector types:
    PMatrix and lists of CycElems exactly, read-only numpy arrays over
    F_q), mat_mul(A, B) and mat_vec(A, v).  The methods below expose
    element arithmetic to the generic helpers in linalg.
    """

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def exact_div(a, b):
        return a.exact_div(b)

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def inv(a):
        return a.inv()


class RingSpec(ScalarRing):
    """Structure constants of Z[zeta_{4p}, 1/p] for one prime p; the exact
    ScalarRing, with CycElem elements and PMatrix matrices."""

    def __init__(self, p: int):
        if not is_prime(p) or p < 5:
            raise RingUsageError(f"p must be a prime >= 5, got {p}")
        self.p = p
        self.m = 4 * p
        self.degree = 2 * (p - 1)
        # Phi_{4p}(x) = sum_{k=0}^{p-1} (-1)^k x^{2k}; hence
        # x^{2p-2} = -sum_{k<p-1} (-1)^k x^{2k} and x^{2p} = -1.
        deg = self.degree
        red_even = [0] * deg
        for k in range(p - 1):
            red_even[2 * k] = -((-1) ** k)
        red_odd = [0] * deg
        for k in range(p - 1):
            if 2 * k + 1 < deg:
                red_odd[2 * k + 1] = -((-1) ** k)
        self._reduction = {deg: red_even, deg + 1: red_odd}
        # canonical basis vector of zeta^E for any exponent E in [0, 4p)
        mono = []
        for E in range(self.m):
            sign = 1
            e = E
            if e >= 2 * p:
                sign, e = -1, e - 2 * p
            if e < deg:
                vec = [0] * deg
                vec[e] = sign
            else:
                vec = [sign * c for c in self._reduction[e]]
            mono.append(tuple(vec))
        self.monomial = tuple(mono)
        # the exponent E in [0, 4p) of each root of unity +-zeta^k, by its coefficients
        self.root_exponent = {vec: E for E, vec in enumerate(self.monomial)}

    def __eq__(self, other):
        return isinstance(other, RingSpec) and other.p == self.p

    def __hash__(self):
        return hash(("RingSpec", self.p))

    def __repr__(self):
        return f"RingSpec(p={self.p})"

    @property
    def zero(self) -> "CycElem":
        return CycElem(self.p, (0,) * self.degree)

    @property
    def one(self) -> "CycElem":
        return CycElem(self.p, (1,) + (0,) * (self.degree - 1))

    def root_power(self, k: int) -> "CycElem":
        return CycElem(self.p, self.monomial[k % self.m])

    def matrix(self, rows):
        from .pmatrix import PMatrix  # pmatrix imports this module

        return PMatrix.from_rows(self.p, rows)

    def diagonal(self, xs):
        from .pmatrix import PMatrix

        return PMatrix.diagonal(self.p, list(xs))

    @staticmethod
    def vector(xs):
        return list(xs)

    @staticmethod
    def mat_mul(A, B):
        return A * B

    @staticmethod
    def mat_vec(A, v):
        return A.apply(v)

    def reduce_poly(self, raw: list[int]) -> list[int]:
        """Canonically reduce a polynomial in zeta of any degree."""
        deg, twop = self.degree, 2 * self.p
        coeffs = list(raw)
        # fold zeta^{2p} = -1
        while len(coeffs) > twop:
            tail = coeffs[twop:]
            coeffs = coeffs[:twop]
            for k, c in enumerate(tail):
                coeffs[k] -= c
        out = coeffs[:deg] + [0] * (deg - min(deg, len(coeffs)))
        for e in range(deg, len(coeffs)):
            c = coeffs[e]
            if c:
                row = self._reduction[e]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return out


@lru_cache(maxsize=None)
def ring(p: int) -> RingSpec:
    return RingSpec(p)


@dataclass(frozen=True)
class CycElem:
    """Element of Z[zeta_{4p}, 1/p]: coeffs in the power basis over p^e."""

    p: int
    coeffs: tuple[int, ...]
    e: int = 0

    @property
    def spec(self) -> RingSpec:
        return ring(self.p)

    # -- constructors -------------------------------------------------

    @staticmethod
    def make(p: int, coeffs: list[int], e: int = 0) -> "CycElem":
        """Canonicalize: reduce mod Phi and strip common p factors."""
        vec = ring(p).reduce_poly(coeffs)
        g = math.gcd(*vec)
        if not g:
            return CycElem(p, tuple(vec), 0)
        k = 0
        while k < e and g % p == 0:
            g //= p
            k += 1
        if k:
            s = p**k
            vec = [c // s for c in vec]
        return CycElem(p, tuple(vec), e - k)

    @staticmethod
    def from_int(p: int, n: int) -> "CycElem":
        vec = [0] * ring(p).degree
        vec[0] = n
        return CycElem(p, tuple(vec), 0)

    @staticmethod
    def zero(p: int) -> "CycElem":
        return ring(p).zero

    @staticmethod
    def one(p: int) -> "CycElem":
        return ring(p).one

    @staticmethod
    def root_power(p: int, k: int) -> "CycElem":
        """zeta^k, k arbitrary."""
        return ring(p).root_power(k)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "CycElem") -> None:
        if self.p != other.p:
            raise RingUsageError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        self._check(other)
        e = max(self.e, other.e)
        sa = self.p ** (e - self.e)
        sb = self.p ** (e - other.e)
        vec = [sa * a + sb * b for a, b in zip(self.coeffs, other.coeffs)]
        return CycElem.make(self.p, vec, e)

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.p, tuple(-c for c in self.coeffs), self.e)

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycElem.make(self.p, prod, self.e + other.e)

    __rmul__ = __mul__

    def mul_root(self, E: int) -> "CycElem":
        """self * zeta^E for 0 <= E < 4p, without a general product.

        zeta^E = +-x^k with k = E mod 2p, so the product is a signed
        rotation of the coefficients in Z[x]/(x^2p + 1), after which the
        two top coefficients (of x^(2p-2) and x^(2p-1)) are folded back by
        the cyclotomic reduction.  zeta^E is a unit, so the result keeps
        the denominator exponent e and is already canonical.
        """
        if not any(self.coeffs):
            return self
        spec = self.spec
        deg, twop = spec.degree, 2 * self.p
        v = self.coeffs + (0, 0)
        cut = twop - E % twop
        if E < twop:
            out = [-c for c in v[cut:]] + list(v[:cut])
        else:
            out = list(v[cut:]) + [-c for c in v[:cut]]
        even, odd, red = out[deg], out[deg + 1], spec._reduction
        folded = [c + even * a + odd * b for c, a, b in zip(out, red[deg], red[deg + 1])]
        return CycElem(self.p, tuple(folded), self.e)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return CycElem.one(self.p)
        # square-and-multiply from the low bit: no product by one, no
        # squaring after the top bit
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- Galois action and norms --------------------------------------

    def galois(self, t: int) -> "CycElem":
        """Apply zeta -> zeta^t; t must be invertible mod 4p."""
        spec = self.spec
        m = spec.m
        if t % 2 == 0 or t % self.p == 0:
            raise RingUsageError(f"galois exponent {t} not coprime to {m}")
        vec = [0] * spec.degree
        for k, c in enumerate(self.coeffs):
            if c:
                mono = spec.monomial[(k * t) % m]
                for j in range(spec.degree):
                    if mono[j]:
                        vec[j] += c * mono[j]
        return CycElem.make(self.p, vec, self.e)

    def conjugate(self) -> "CycElem":
        """Complex conjugation zeta -> zeta^{-1} (hence A -> A^{-1})."""
        return self.galois(self.spec.m - 1)

    def in_half_conductor_subring(self) -> bool:
        """Whether the element lies in Z[1/p, zeta_{2p}] = Z[1/p, A]."""
        return self.galois(2 * self.p + 1) == self

    def _norm_cofactor(self) -> tuple[int, "CycElem"]:
        """(N, c) for the integer part x (denominator ignored): c is the
        product of the nontrivial Galois conjugates of x, and N = x * c is
        the field norm."""
        base = CycElem(self.p, self.coeffs, 0)
        conjugates = (base.galois(t) for t in range(3, self.spec.m, 2) if t % self.p)
        cof = reduce(operator.mul, conjugates)
        norm = base * cof
        if any(norm.coeffs[1:]):
            raise AssertionError("norm did not land in Z")
        return norm.coeffs[0], cof

    def is_unit(self) -> bool:
        if self.is_zero():
            return False
        return abs(split_p_part(self._norm_cofactor()[0], self.p)[1]) == 1

    def inv(self) -> "CycElem":
        """Inverse in Z[zeta, 1/p]; raises NotAUnitError otherwise."""
        if self.is_zero():
            raise NotAUnitError("zero is not invertible")
        n, cof = self._norm_cofactor()
        k, rest = split_p_part(n, self.p)
        if abs(rest) != 1:
            raise NotAUnitError(f"norm has non-p part {rest}")
        if rest < 0:
            cof = -cof
        # x = int_part / p^e  =>  x^{-1} = p^e * cofactor / (rest p^k), rest = +-1
        scaled = [c * self.p ** self.e for c in cof.coeffs]
        return CycElem.make(self.p, scaled, cof.e + k)

    def exact_div(self, other: "CycElem") -> "CycElem":
        """self / other when the quotient lies in the ring; exact."""
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError
        n, cof = other._norm_cofactor()
        num = self * cof
        k, rest = split_p_part(n, self.p)
        # quotient = num * p^{other.e} / (p^k * rest)
        vec = [c * self.p ** other.e for c in num.coeffs]
        if any(c % rest for c in vec):
            raise InexactDivisionError("quotient is not in Z[zeta, 1/p]")
        return CycElem.make(self.p, [c // rest for c in vec], num.e + k)

    # -- misc ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": [str(c) for c in self.coeffs], "denomExp": self.e}

    @staticmethod
    def from_json(doc: dict) -> "CycElem":
        return CycElem.make(int(doc["p"]), [int(c) for c in doc["coeffs"]], int(doc["denomExp"]))

    def __repr__(self):
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        if self.e:
            return f"({body})/{self.p}^{self.e}"
        return body


# -- distinguished elements --------------------------------------------


def elem_A(p: int) -> CycElem:
    """Primitive 2p-th root of unity, the skein evaluation point."""
    return CycElem.root_power(p, 2)


def elem_u(p: int) -> CycElem:
    """u = A^2, a primitive p-th root of unity."""
    return CycElem.root_power(p, 4)


def elem_i(p: int) -> CycElem:
    """Primitive fourth root of unity."""
    return CycElem.root_power(p, p)


def gauss_sqrt_minus_p(R):
    """A square root of -p: the quadratic Gauss sum, times i when p = 1 mod 4.

    The bare sum g = sum_k u^{k^2} squares to (-1)^((p-1)/2) p.
    R is p for the exact ring or a ResidueSpec for F_q.
    """
    S = scalar_ring(R)
    p = S.p
    g = S.zero
    for k in range(p):
        g = g + S.root_power(4 * (k * k % p))
    if p % 4 == 1:
        g = g * S.root_power(p)
    return g


@lru_cache(maxsize=None)
def eta(R):
    """RT invariant of the 3-sphere: (A^2 - A^{-2}) / sqrt(-p); a unit.

    R is p for the exact ring or a ResidueSpec for F_q.  Cached: both
    element types are immutable.
    """
    S = scalar_ring(R)
    return (S.root_power(4) - S.root_power(-4)).exact_div(gauss_sqrt_minus_p(R))


# -- residue reduction ---------------------------------------------------


class FqElem:
    """Element of the residue field F_q of a ResidueSpec, with CycElem's operators."""

    __slots__ = ("q", "v")

    def __init__(self, q: int, v: int):
        self.q = q
        self.v = v % q

    def __add__(self, other: "FqElem") -> "FqElem":
        return FqElem(self.q, self.v + other.v)

    def __neg__(self) -> "FqElem":
        return FqElem(self.q, -self.v)

    def __sub__(self, other: "FqElem") -> "FqElem":
        return FqElem(self.q, self.v - other.v)

    def __mul__(self, other: "FqElem") -> "FqElem":
        return FqElem(self.q, self.v * other.v)

    def __pow__(self, n: int) -> "FqElem":
        if n < 0:
            return self.inv() ** (-n)
        return FqElem(self.q, pow(self.v, n, self.q))

    def __repr__(self):
        return f"{self.v} mod {self.q}"

    def is_zero(self) -> bool:
        return self.v == 0

    def inv(self) -> "FqElem":
        if self.v == 0:
            raise NotAUnitError("zero is not invertible")
        return FqElem(self.q, pow(self.v, self.q - 2, self.q))

    def exact_div(self, other: "FqElem") -> "FqElem":
        return self * other.inv()


@dataclass(frozen=True)
class ResidueSpec(ScalarRing):
    """A prime q = 1 mod 4p together with the chosen root of Phi_{4p} in F_q.

    The root is the smallest residue of multiplicative order exactly 4p,
    which pins down one maximal ideal J with Z[zeta,1/p]/J = F_q and makes
    runs reproducible.  As a ScalarRing it is F_q with zeta -> root: FqElem
    elements, and matrices and vectors as read-only numpy arrays of residues
    in [0, q), in linalg.fq_dtype, multiplied by linalg.fq_matmul.
    """

    p: int
    q: int
    root: int

    @staticmethod
    def for_primes(p: int, q: int) -> "ResidueSpec":
        """The spec with the smallest root, found in time polylogarithmic in q.

        g = x^((q-1)/4p) has order dividing 4p; the first x for which it is
        exactly 4p gives a generator of the roots of order 4p, which are
        then its powers g^k with k prime to 4p.
        """
        if not is_prime(q):
            raise RingUsageError(f"q = {q} is not prime")
        m = 4 * p
        if q % m != 1:
            raise RingUsageError(f"q = {q} is not 1 mod {m}")
        for x in range(2, q):
            g = pow(x, (q - 1) // m, q)
            if all(pow(g, m // ell, q) != 1 for ell in (2, p)):
                root = min(pow(g, k, q) for k in range(1, m) if math.gcd(k, m) == 1)
                return ResidueSpec(p, q, root)
        raise RingUsageError(f"no root of order {m} mod {q}")

    def reduce(self, x: CycElem) -> int:
        """Ring homomorphism Z[zeta, 1/p] -> F_q, zeta -> root."""
        if x.p != self.p:
            raise RingUsageError("element and residue spec use different p")
        q = self.q
        acc = 0
        for c in reversed(x.coeffs):
            acc = (acc * self.root + c) % q
        if x.e:
            acc = acc * pow(pow(self.p, x.e, q), q - 2, q) % q
        return acc

    @property
    def zero(self) -> FqElem:
        return FqElem(self.q, 0)

    @property
    def one(self) -> FqElem:
        return FqElem(self.q, 1)

    def root_power(self, k: int) -> FqElem:
        return FqElem(self.q, pow(self.root, k % (4 * self.p), self.q))

    def matrix(self, rows):
        dtype = linalg.fq_dtype(len(rows), self.q)
        return _read_only(np.array([[x.v for x in row] for row in rows], dtype=dtype))

    def vector(self, xs):
        return _read_only(np.array([x.v for x in xs], dtype=linalg.fq_dtype(len(xs), self.q)))

    def diagonal(self, xs):
        return _read_only(np.diag(self.vector(xs)))

    def mat_mul(self, A, B):
        return _read_only(linalg.fq_matmul(A, B, self.q))

    mat_vec = mat_mul  # fq_matmul takes a vector as its right factor too


def _read_only(a):
    a.setflags(write=False)
    return a


def scalar_ring(R) -> ScalarRing:
    """The ScalarRing a caller names: p for Z[zeta_{4p}, 1/p], or a ResidueSpec."""
    return R if isinstance(R, ResidueSpec) else ring(R)


def residue_primes(p: int, count: int = 5) -> list[int]:
    """The first `count` primes q = 1 mod 4p."""
    out = []
    q = 4 * p + 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q += 4 * p
    return out


# -- ideals ---------------------------------------------------------------


from . import linalg  # noqa: E402


@dataclass(frozen=True)
class CycIdeal:
    """An ideal I of Z[zeta, 1/p], held as the integer lattice I ∩ Z[zeta].

    Rows are its Hermite normal form.  from_generators spans g * zeta^k
    over the generators g with their denominators dropped (p is a unit);
    for a nonzero g these deg rows are independent, so the span has full
    rank, and _saturate_at_p closes it under division by p in one HNF.
    Membership of a localized element is then a plain lattice question on
    its numerator.  The zero ideal has no rows.
    """

    p: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def is_zero(self) -> bool:
        return len(self.rows) == 0

    @staticmethod
    def from_generators(gens: list[CycElem]) -> "CycIdeal":
        if not gens:
            raise RingUsageError("need at least one generator")
        p = gens[0].p
        deg = ring(p).degree
        rows = []
        for g in gens:
            if g.p != p:
                raise RingUsageError("generators over different primes")
            base = CycElem(p, g.coeffs, 0)  # p-powers are units: drop denominator
            rows += [list(base.mul_root(k).coeffs) for k in range(deg)]
        basis = _saturate_at_p(linalg.hnf(rows), p, deg)
        return CycIdeal(p, tuple(tuple(r) for r in basis))

    def contains(self, x: CycElem) -> bool:
        if x.p != self.p:
            raise RingUsageError("element over a different prime")
        if x.is_zero():
            return True
        if self.is_zero:
            return False
        return linalg.lattice_contains(self.rows, x.coeffs)

    def leq(self, other: "CycIdeal") -> bool:
        """Containment self <= other (every basis row of self in other)."""
        if self.p != other.p:
            raise RingUsageError("ideals over different primes")
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return all(linalg.lattice_contains(other.rows, r) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, CycIdeal) and self.p == other.p and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def is_full(self) -> bool:
        return self.contains(CycElem.one(self.p))

    def index(self) -> int:
        """Lattice index [Z^deg : I] (product of HNF pivots); 0 for rank drop."""
        if self.is_zero:
            return 0
        deg = ring(self.p).degree
        if len(self.rows) < deg:
            return 0
        piv = 1
        for r in self.rows:
            piv *= next(c for c in r if c)
        return piv

    def to_json(self) -> dict:
        return {"p": self.p, "rows": [[str(c) for c in r] for r in self.rows]}


def _saturate_at_p(basis: list[list[int]], p: int, dim: int) -> list[list[int]]:
    """Close the full-rank HNF lattice L under division by p inside Z^dim
    (localization at p).

    With [Z^dim : L] = p^a m and p prime to m, Z^dim / L splits into a
    p-part and an m-part, and multiplication by m is invertible on the
    first and kills the second.  So the saturation, the preimage of the
    p-part, is L + m Z^dim: one HNF, no elimination.  An empty basis (the
    zero ideal) is returned unchanged.
    """
    if not basis:
        return basis
    assert len(basis) == dim, "saturation needs a full-rank lattice"
    m = split_p_part(math.prod(next(c for c in row if c) for row in basis), p)[1]
    return linalg.hnf(basis + [[m * (j == i) for j in range(dim)] for i in range(dim)])
