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
from dataclasses import dataclass
from functools import lru_cache


class RingUsageError(ValueError):
    """Operands constructed over different primes, or malformed input."""


class NotAUnitError(ArithmeticError):
    """Inversion requested for an element that is not a unit in Z[zeta, 1/p]."""


class InexactDivisionError(ArithmeticError):
    """An exact ring division failed (quotient not in Z[zeta, 1/p])."""


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

    Subclasses provide p, zero, one, root_power(k) = zeta^k, matrix(rows)
    and vector(xs) (their dense matrix and vector types), mat_mul(A, B)
    and mat_vec(A, v).  The methods below expose element arithmetic to the
    generic helpers in linalg.
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

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = CycElem.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def _norm_int(self) -> int:
        """Field norm of the integer part (denominator ignored)."""
        spec = self.spec
        acc = CycElem(self.p, self.coeffs, 0)
        for t in range(2, spec.m):
            if t % 2 and t % self.p:
                acc = acc * CycElem(self.p, self.coeffs, 0).galois(t)
        if any(acc.coeffs[1:]):
            raise AssertionError("norm did not land in Z")
        return acc.coeffs[0]

    def _cofactor(self) -> "CycElem":
        """Product of all nontrivial Galois conjugates of the integer part."""
        spec = self.spec
        acc = CycElem.one(self.p)
        base = CycElem(self.p, self.coeffs, 0)
        for t in range(2, spec.m):
            if t % 2 and t % self.p:
                acc = acc * base.galois(t)
        return acc

    def is_unit(self) -> bool:
        if self.is_zero():
            return False
        n = abs(self._norm_int())
        while n % self.p == 0:
            n //= self.p
        return n == 1

    def inv(self) -> "CycElem":
        """Inverse in Z[zeta, 1/p]; raises NotAUnitError otherwise."""
        if self.is_zero():
            raise NotAUnitError("zero is not invertible")
        n = self._norm_int()
        sign = 1 if n > 0 else -1
        n = abs(n)
        k = 0
        while n % self.p == 0:
            n //= self.p
            k += 1
        if n != 1:
            raise NotAUnitError(f"norm has non-p part {sign * n}")
        cof = self._cofactor()
        if sign < 0:
            cof = -cof
        # x = int_part / p^e  =>  x^{-1} = p^e * cofactor / (sign p^k)
        scaled = [c * self.p ** self.e for c in cof.coeffs]
        return CycElem.make(self.p, scaled, cof.e + k)

    def exact_div(self, other: "CycElem") -> "CycElem":
        """self / other when the quotient lies in the ring; exact."""
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError
        n = other._norm_int()
        num = self * other._cofactor()
        sign = 1 if n > 0 else -1
        n = abs(n)
        k = 0
        while n % self.p == 0:
            n //= self.p
            k += 1
        # quotient = sign * num * p^{other.e} / (p^k * n)
        vec = [sign * c * self.p ** other.e for c in num.coeffs]
        if n > 1:
            if any(c % n for c in vec):
                raise InexactDivisionError("quotient is not in Z[zeta, 1/p]")
            vec = [c // n for c in vec]
        return CycElem.make(self.p, vec, num.e + k)

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
    runs reproducible.  As a ScalarRing it is F_q with zeta -> root:
    FqElem elements, and matrices as tuples of rows of ints in [0, q).
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

    @staticmethod
    def matrix(rows):
        return tuple(tuple(x.v for x in row) for row in rows)

    @staticmethod
    def vector(xs):
        return tuple(x.v for x in xs)

    def mat_mul(self, A, B):
        return tuple(map(tuple, linalg.fq_matmul(A, B, self.q).tolist()))

    def mat_vec(self, A, v):
        return linalg.fq_mat_vec(A, v, self.q)


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
    """A p-saturated integer lattice presenting an ideal of Z[zeta, 1/p].

    Rows are the Hermite normal form of the Z-module generated by
    g * zeta^k over all generators g; p-saturation makes membership of
    localized elements a plain integer lattice question.
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
        spec = ring(p)
        rows = []
        for g in gens:
            if g.p != p:
                raise RingUsageError("generators over different primes")
            base = CycElem(p, g.coeffs, 0)  # p-powers are units: drop denominator
            for k in range(spec.degree):
                shifted = base * CycElem.root_power(p, k)
                rows.append(list(shifted.coeffs))
        basis = linalg.hnf(rows)
        basis = _saturate_at_p(basis, p, spec.degree)
        return CycIdeal(p, tuple(tuple(r) for r in basis))

    def contains(self, x: CycElem) -> bool:
        if x.p != self.p:
            raise RingUsageError("element over a different prime")
        if x.is_zero():
            return True
        if self.is_zero:
            return False
        return linalg.lattice_contains([list(r) for r in self.rows], list(x.coeffs))

    def leq(self, other: "CycIdeal") -> bool:
        """Containment self <= other (every basis row of self in other)."""
        if self.p != other.p:
            raise RingUsageError("ideals over different primes")
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        obasis = [list(r) for r in other.rows]
        return all(linalg.lattice_contains(obasis, list(r)) for r in self.rows)

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
    """Close the lattice under division by p inside Z^dim (localization at p)."""
    while basis:
        # a combination y of basis rows with y = 0 mod p yields a new row y/p
        reduced = linalg.fq_rref([list(r) for r in basis], p)
        if len(reduced) == len(basis):
            break
        # kernel vector over F_p: find it by eliminating with tracking
        found = _p_kernel_combination(basis, p)
        if found is None:
            break
        basis = linalg.hnf(basis + [[c // p for c in found]])
    return basis


def _p_kernel_combination(basis: list[list[int]], p: int) -> list[int] | None:
    """An integer combination of rows that is divisible by p, not p*lattice."""
    n = len(basis)
    aug = [[basis[i][j] % p for j in range(len(basis[i]))] + [1 if k == i else 0 for k in range(n)]
           for i in range(n)]
    width = len(basis[0])
    reduced = linalg.fq_rref(aug, p)
    for row in reduced:
        if all(c == 0 for c in row[:width]) and any(row[width:]):
            combo = row[width:]
            vec = [0] * width
            for c, r in zip(combo, basis):
                if c:
                    vec = [v + c * u for v, u in zip(vec, r)]
            if all(v % p == 0 for v in vec) and any(vec):
                return vec
    return None
