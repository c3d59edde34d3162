"""Projective matrices over the cyclotomic ring.

A PMatrix is a square matrix of CycElem entries, flagged projective when
equality should only be tested up to one global invertible scalar (the
situation for quantum representations, whose anomaly phases we never
normalize away silently).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cyclotomic import CycElem, ResidueSpec, RingUsageError, ring


@dataclass(frozen=True)
class PMatrix:
    p: int
    entries: tuple[tuple[CycElem, ...], ...]
    projective: bool = True

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(p: int, rows, projective: bool = True) -> "PMatrix":
        return PMatrix(p, tuple(tuple(r) for r in rows), projective)

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

    def __mul__(self, other: "PMatrix") -> "PMatrix":
        if self.p != other.p or self.n != other.n:
            raise RingUsageError("incompatible matrices")
        n = self.n
        a, b = self.entries, other.entries
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = CycElem.zero(self.p)
                for k in range(n):
                    if not a[i][k].is_zero() and not b[k][j].is_zero():
                        acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            rows.append(row)
        return PMatrix.from_rows(self.p, rows, self.projective or other.projective)

    def __pow__(self, k: int) -> "PMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = PMatrix.identity(self.p, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: CycElem) -> "PMatrix":
        return PMatrix.from_rows(
            self.p, [[c * x for x in row] for row in self.entries], self.projective
        )

    def apply(self, vec: list[CycElem]) -> list[CycElem]:
        """The product M vec, skipping zero entries as __mul__ does."""
        support = [k for k in range(self.n) if not vec[k].is_zero()]
        out = []
        for row in self.entries:
            acc = CycElem.zero(self.p)
            for k in support:
                if not row[k].is_zero():
                    acc = acc + row[k] * vec[k]
            out.append(acc)
        return out

    def trace(self) -> CycElem:
        acc = CycElem.zero(self.p)
        for i in range(self.n):
            acc = acc + self.entries[i][i]
        return acc

    def conj_transpose(self) -> "PMatrix":
        return PMatrix.from_rows(
            self.p,
            [[self.entries[j][i].conjugate() for j in range(self.n)] for i in range(self.n)],
            self.projective,
        )

    def inverse(self) -> "PMatrix":
        inv = linalg.ring_inverse([list(r) for r in self.entries], ring(self.p))
        return PMatrix.from_rows(self.p, inv, self.projective)

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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "projective": self.projective,
            "entries": [[x.to_json() for x in row] for row in self.entries],
        }


def proj_equal(m1: PMatrix, m2: PMatrix) -> bool:
    return m1.proj_equal(m2)
