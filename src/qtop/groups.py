"""Finite groups as explicit multiplication tables.

Groups are ingested as tables (CSV: row i, col j = index of the product)
or as permutation generators, in which case the table is built by
closure.  The table and the inverses are read-only intp arrays.
Associativity, identity, and inverses are checked on construction as
whole-array comparisons; the exponent e(G) is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class GroupTableError(ValueError):
    """Malformed multiplication table or unknown builtin group."""


@dataclass(frozen=True, eq=False)
class FiniteGroupTable:
    name: str
    table: np.ndarray  # table[a, b] = index of a*b
    identity: int
    inverse: np.ndarray
    exponent: int

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    @staticmethod
    def from_table(name: str, table) -> "FiniteGroupTable":
        """Validate a square table of indices; |G|^3 comparisons for
        associativity, one row of (a*b)*c against a*(b*c) at a time."""
        n = len(table)
        try:
            T = np.array(table, dtype=np.intp).reshape(n, n)
        except ValueError:
            raise GroupTableError("table is not square") from None
        if ((T < 0) | (T >= n)).any():
            raise GroupTableError("table entries out of range")
        r = np.arange(n)
        ids = np.flatnonzero((T == r).all(axis=1) & (T.T == r).all(axis=1))
        if not len(ids):
            raise GroupTableError("no identity element")
        identity = int(ids[0])
        two_sided = (T == identity) & (T.T == identity)
        missing = np.flatnonzero(~two_sided.any(axis=1))
        if len(missing):
            raise GroupTableError(f"element {missing[0]} has no inverse")
        for a in range(n):
            if not np.array_equal(T[T[a]], T[a][T]):
                raise GroupTableError("table is not associative")
        # the exponent is the least k with x^k = 1 for every x at once
        cur, exponent = r, 1
        while (cur != identity).any():
            cur, exponent = T[cur, r], exponent + 1
        inverse = two_sided.argmax(axis=1)
        T.setflags(write=False)
        inverse.setflags(write=False)
        return FiniteGroupTable(name, T, identity, inverse, exponent)

    @staticmethod
    def from_permutations(name: str, gens: list[tuple[int, ...]]) -> "FiniteGroupTable":
        """Closure of permutation generators (tuples mapping i -> perm[i])."""
        if not gens:
            raise GroupTableError("need at least one permutation")
        deg = len(gens[0])
        ident = tuple(range(deg))

        def compose(a, b):
            return tuple(a[b[i]] for i in range(deg))

        elements = [ident]
        index = {ident: 0}
        queue = [ident]
        while queue:
            cur = queue.pop()
            for g in gens:
                nxt = compose(g, cur)
                if nxt not in index:
                    index[nxt] = len(elements)
                    elements.append(nxt)
                    queue.append(nxt)
        table = [
            [index[compose(a, b)] for b in elements]
            for a in elements
        ]
        return FiniteGroupTable.from_table(name, table)

    @staticmethod
    def from_csv(name: str, text: str) -> "FiniteGroupTable":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
        return FiniteGroupTable.from_table(name, rows)

    def to_csv(self) -> str:
        return "\n".join(",".join(map(str, row)) for row in self.table.tolist())


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroupTable:
    """Builtins: Z/n (aliases Zn, Z/n), S3, Q8."""
    key = name.strip().lower().replace("_", "").replace("-", "")
    if key.startswith("z/") or key.startswith("z"):
        digits = key[2:] if key.startswith("z/") else key[1:]
        if digits.isdigit() and int(digits) >= 1:
            n = int(digits)
            r = np.arange(n)
            return FiniteGroupTable.from_table(f"Z/{n}", np.add.outer(r, r) % n)
    if key == "s3":
        return FiniteGroupTable.from_permutations(
            "S3", [(1, 0, 2), (1, 2, 0)]
        )
    if key == "q8":
        # left multiplication by i and by j on 1, -1, i, -i, j, -j, k, -k
        return FiniteGroupTable.from_permutations(
            "Q8", [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]
        )
    raise GroupTableError(f"unknown builtin group {name!r}")
