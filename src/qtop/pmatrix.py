"""Projective matrices over the cyclotomic ring.

A PMatrix is a square matrix of CycElem entries.  Quantum
representations are projective, and their anomaly phases are never
normalized away silently: proj_equal compares two matrices up to one
global scalar, equal_exact entry by entry.

A factor that is diagonal with every diagonal entry a root of unity
+-zeta^E (the diagonal twists, and the D of Q D^k Q^-1) multiplies by
rotating the coefficients of each entry of the other factor
(CycElem.mul_root); its exponents E are found once per matrix.  Every
other product and matrix-vector product brings each operand over one
p-power denominator and packs every entry into one Python integer by
Kronecker substitution, so a dot product is a sum of integer products,
unpacked and canonicalized once per output entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .cyclotomic import CycElem, ResidueSpec, RingUsageError, ring


def _common_bound(p: int, elems) -> tuple[int, int]:
    """(E, M): the largest denominator exponent among elems, and the largest
    |c| among their coefficients brought over the one denominator p^E."""
    E = max(x.e for x in elems)
    return E, max(p ** (E - x.e) * max(map(abs, x.coeffs)) for x in elems)


class _Kronecker:
    """Kronecker substitution zeta -> 2^B for dot products of length n whose
    coefficient products are bounded by m.

    An element x over p^E packs into the integer sum c_k 2^(B k), where c is
    the coefficient vector of x scaled by p^(E - e).  The product of two
    packed entries packs the polynomial product, and a sum of n of them has
    2 deg - 1 digits, each at most n deg m < 2^(B - 2) in absolute value, so
    balanced base-2^B digits recover it exactly.
    """

    def __init__(self, p: int, n: int, m: int):
        self.p = p
        deg = ring(p).degree
        self.B = B = (n * deg * m).bit_length() + 2
        self.half = 1 << (B - 1)
        self.mask = (1 << B) - 1
        self.shifts = range(0, B * (2 * deg - 1), B)
        # adding half to every digit makes them all non-negative
        self.offset = sum(self.half << s for s in self.shifts)

    def pack(self, x: CycElem, E: int) -> int:
        B, acc = self.B, 0
        for c in reversed(x.coeffs):
            acc = (acc << B) + c
        return acc if x.e == E else acc * self.p ** (E - x.e)

    def unpack(self, packed: int, e: int) -> CycElem:
        """The element packed / p^e."""
        if not packed:
            return CycElem.zero(self.p)
        t, mask, half = packed + self.offset, self.mask, self.half
        return CycElem.make(self.p, [((t >> s) & mask) - half for s in self.shifts], e)


@dataclass(frozen=True)
class PMatrix:
    p: int
    entries: tuple[tuple[CycElem, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(p: int, rows) -> "PMatrix":
        return PMatrix(p, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(p: int, n: int) -> "PMatrix":
        one, zero = CycElem.one(p), CycElem.zero(p)
        return PMatrix.from_rows(
            p, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def diagonal(p: int, diag: list[CycElem]) -> "PMatrix":
        zero = CycElem.zero(p)
        n = len(diag)
        return PMatrix.from_rows(
            p, [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    @cached_property
    def _bound(self) -> tuple[int, int]:
        return _common_bound(self.p, [x for row in self.entries for x in row])

    @cached_property
    def _root_diagonal(self) -> tuple[int, ...] | None:
        """The exponents E_i with entry (i, i) = zeta^(E_i) when the matrix
        is diagonal and every diagonal entry is a root of unity, else None.
        Decided from the coefficient tuples alone."""
        exponent = ring(self.p).root_exponent
        out = []
        for i, row in enumerate(self.entries):
            d = row[i]
            E = None if d.e else exponent.get(d.coeffs)
            if E is None:
                return None
            out.append(E)
        for i, row in enumerate(self.entries):
            if any(any(x.coeffs) for j, x in enumerate(row) if j != i):
                return None
        return tuple(out)

    def __mul__(self, other: "PMatrix") -> "PMatrix":
        if self.p != other.p or self.n != other.n:
            raise RingUsageError("incompatible matrices")
        left = self._root_diagonal
        if left is not None:  # row i of other times zeta^(E_i)
            out = [[x.mul_root(E) for x in row] for E, row in zip(left, other.entries)]
            return PMatrix.from_rows(self.p, out)
        right = other._root_diagonal
        if right is not None:  # column j of self times zeta^(E_j)
            out = [[x.mul_root(E) for x, E in zip(row, right)] for row in self.entries]
            return PMatrix.from_rows(self.p, out)
        (ea, ma), (eb, mb) = self._bound, other._bound
        kron = _Kronecker(self.p, self.n, ma * mb)
        rows = [[kron.pack(x, ea) for x in row] for row in self.entries]
        cols = [[kron.pack(row[j], eb) for row in other.entries] for j in range(self.n)]
        out = [[kron.unpack(sum(map(mul, ra, cb)), ea + eb) for cb in cols] for ra in rows]
        return PMatrix.from_rows(self.p, out)

    def __pow__(self, k: int) -> "PMatrix":
        if k < 0:
            raise RingUsageError("PMatrix powers need k >= 0")
        if k == 0:
            return PMatrix.identity(self.p, self.n)
        # square-and-multiply from the low bit: no product by the identity,
        # no squaring after the top bit
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def scale(self, c: CycElem) -> "PMatrix":
        return PMatrix.from_rows(self.p, [[c * x for x in row] for row in self.entries])

    def apply(self, vec: list[CycElem]) -> list[CycElem]:
        """The product M vec: rotations by a root-of-unity diagonal, else
        the packed dot product of __mul__."""
        diag = self._root_diagonal
        if diag is not None:
            return [x.mul_root(E) for x, E in zip(vec, diag)]
        (em, mm), (ev, mv) = self._bound, _common_bound(self.p, vec)
        kron = _Kronecker(self.p, self.n, mm * mv)
        col = [kron.pack(x, ev) for x in vec]
        return [
            kron.unpack(sum(map(mul, (kron.pack(x, em) for x in row), col)), em + ev)
            for row in self.entries
        ]

    def trace(self) -> CycElem:
        acc = CycElem.zero(self.p)
        for i in range(self.n):
            acc = acc + self.entries[i][i]
        return acc

    def conj_transpose(self) -> "PMatrix":
        return PMatrix.from_rows(
            self.p,
            [[self.entries[j][i].conjugate() for j in range(self.n)] for i in range(self.n)],
        )

    def equal_exact(self, other: "PMatrix") -> bool:
        return self.entries == other.entries

    def is_scalar(self) -> bool:
        n = self.n
        d = self.entries[0][0]
        for i in range(n):
            for j in range(n):
                if i == j:
                    if self.entries[i][j] != d:
                        return False
                elif not self.entries[i][j].is_zero():
                    return False
        return not d.is_zero()

    def proj_equal(self, other: "PMatrix") -> bool:
        """Equality up to one global scalar, decided by cross-multiplication."""
        if self.p != other.p or self.n != other.n:
            return False
        ref = None
        for i in range(self.n):
            for j in range(self.n):
                a, b = self.entries[i][j], other.entries[i][j]
                if a.is_zero() != b.is_zero():
                    return False
                if ref is None and not a.is_zero():
                    ref = (i, j)
        if ref is None:
            return True  # both zero
        ri, rj = ref
        a0, b0 = self.entries[ri][rj], other.entries[ri][rj]
        for i in range(self.n):
            for j in range(self.n):
                if a0 * other.entries[i][j] != b0 * self.entries[i][j]:
                    return False
        return True

    def reduce(self, r: ResidueSpec) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r.reduce(x) for x in row) for row in self.entries)
