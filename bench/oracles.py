"""Computations the checks compare the program's outputs against.

Each is made apart from qtop: from the definitions (colourings, orders
of residues), from a classical formula (Dijkgraaf-Witten over Z/n, the
binomial law) or with sympy (norms as resultants), in plain integers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def admissible(p: int, a: int, b: int, c: int) -> bool:
    """Parity, triangle inequalities and the level bound a + b + c <= 2p - 4."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b and a + b + c <= 2 * p - 4


def dumbbell_colourings(p: int) -> list[tuple[int, int, int]]:
    """Colourings (a, c, b) of the dumbbell spine by the even colours, lexicographic."""
    cols = range(0, p - 2, 2)
    return [
        (a, c, b)
        for a in cols
        for c in cols
        if admissible(p, a, a, c)
        for b in cols
        if admissible(p, b, b, c)
    ]


def multiplicative_order(x: int, q: int) -> int:
    acc, k = x % q, 1
    while acc != 1:
        acc = acc * x % q
        k += 1
    return k


def smallest_root(p: int, q: int) -> int:
    """The smallest residue of multiplicative order exactly 4p mod q, by brute force."""
    return next(r for r in range(2, q) if multiplicative_order(r, q) == 4 * p)


def residue(coeffs, denom_exp: int, p: int, q: int, root: int) -> int:
    """sum_k c_k root^k / p^denom_exp in F_q."""
    acc, power = 0, 1
    for c in coeffs:
        acc = (acc + c * power) % q
        power = power * root % q
    return acc * pow(pow(p, denom_exp, q), q - 2, q) % q


def murakami_image(coeffs, p: int) -> tuple[int, int]:
    """Image a + b w in F_p[w]/(w^2 + 1) of sum_k c_k zeta^k under zeta -> w."""
    parts = [0, 0, 0, 0]
    for k, c in enumerate(coeffs):
        parts[k % 4] += c
    return (parts[0] - parts[2]) % p, (parts[1] - parts[3]) % p


def murakami_targets(order: int, p: int) -> set[tuple[int, int]]:
    """{w^k |H_1|^((p-3)/2) : k = 0..3}, the residues Murakami's law allows."""
    h = pow(order, (p - 3) // 2, p)
    return {(h, 0), (0, h), (-h % p, 0), (0, -h % p)}


def p_free_norm(coeffs, p: int) -> int:
    """p-free part of |Res(Phi_4p, sum_k c_k x^k)|, the index of the ideal (x)."""
    import sympy

    x = sympy.Symbol("x")
    poly = sum(int(c) * x ** k for k, c in enumerate(coeffs))
    if poly == 0:
        return 0
    norm = abs(int(sympy.resultant(sympy.cyclotomic_poly(4 * p, x), poly, x)))
    while norm % p == 0:
        norm //= p
    return norm


def dw_cyclic(rank: int, torsion, n: int) -> Fraction:
    """Z_{Z/n}(M) = |Hom(H_1, Z/n)| / n = n^(b_1 - 1) prod gcd(d_i, n)."""
    homs = n ** rank
    for d in torsion:
        homs *= math.gcd(d, n)
    return Fraction(homs, n)


def mat_vec(M, v, q: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) % q for row in M]


def binomial_bounds(trials: int, prob: float, tail: float = 1e-9) -> tuple[int, int]:
    """(lo, hi) with P(X < lo) <= tail and P(X > hi) <= tail, X ~ Bin(trials, prob)."""

    def pmf(k):
        log = (
            math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
            + k * math.log(prob) + (trials - k) * math.log1p(-prob)
        )
        return math.exp(log)

    lo, below = 0, 0.0
    while below + pmf(lo) <= tail:
        below += pmf(lo)
        lo += 1
    hi, above = trials, 0.0
    while above + pmf(hi) <= tail:
        above += pmf(hi)
        hi -= 1
    return lo, hi
