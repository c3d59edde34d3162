"""SO(3) skein-theoretic structure constants at an odd prime level p.

Kauffman-bracket conventions at A a primitive 2p-th root of unity, with the
standard signed normalizations:

    [n]      = (A^{2n} - A^{-2n}) / (A^2 - A^{-2})
    Delta_n  = (-1)^n [n+1]               (quantum dimension, loop value)
    mu_n     = (-1)^n A^{n(n+2)}          (twist eigenvalue on color n)

The SO(3) theory lives on the even colors 0, 2, ..., p-3; there are
(p-1)/2 of them.  On even colors the twist spectrum is exactly the set
{(-A)^{i^2-1} : i = 1..(p-1)/2}: writing n = c(i) for the color ordering
used by the genus-1 basis (c(i) = i-1 for odd i, p-1-i for even i, so
that c(i)+1 = +-i mod p), one has mu_{c(i)} = (-A)^{i^2-1} exactly.

The constants are generic over their scalars: the first argument R is the
prime p for exact elements of Z[zeta_{4p}, 1/p], or a ResidueSpec for
their images in F_q (see pmatrix.scalar_ring).  Each formula is
written once; over F_q it gives the reduction of the exact value.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CycElem, eta, ring
from .pmatrix import PMatrix, scalar_ring


class AdmissibilityError(ValueError):
    """A coloring violates parity, triangle, or level bounds."""


@lru_cache(maxsize=None)
def colors(p: int) -> tuple[int, ...]:
    """Even colors of the level-p SO(3) theory: 0, 2, ..., p-3."""
    ring(p)  # validates p
    return tuple(range(0, p - 2, 2))


@lru_cache(maxsize=None)
def spectral_color_order(p: int) -> tuple[int, ...]:
    """Colors ordered so the twist diagonal reads (-A)^{i^2-1}, i = 1, 2, ...

    c(i) = i-1 when i is odd, p-1-i when i is even; this is the unique
    ordering of the even colors with c(i)+1 = +-i mod p.
    """
    out = []
    for i in range(1, (p - 1) // 2 + 1):
        out.append(i - 1 if i % 2 == 1 else p - 1 - i)
    return tuple(out)


def admissible(p: int, a: int, b: int, c: int) -> bool:
    cols = colors(p)
    if a not in cols or b not in cols or c not in cols:
        return False
    if (a + b + c) % 2 != 0:
        return False
    if not (abs(a - b) <= c <= a + b):
        return False
    return a + b + c <= 2 * p - 4


def check_admissible(p: int, a: int, b: int, c: int) -> None:
    if not admissible(p, a, b, c):
        raise AdmissibilityError(f"({a},{b},{c}) not admissible at p={p}")


@lru_cache(maxsize=None)
def quantum_integer(R, n: int):
    """[n]: u^{n-1} + u^{n-3} + ... + u^{1-n}."""
    if n < 0:
        raise ValueError("quantum integer wants n >= 0")
    S = scalar_ring(R)
    acc = S.zero
    for k in range(n):
        acc = acc + S.root_power(4 * (n - 1 - 2 * k))
    return acc


@lru_cache(maxsize=None)
def quantum_factorial(R, n: int):
    if n <= 0:
        return scalar_ring(R).one
    return quantum_factorial(R, n - 1) * quantum_integer(R, n)


@lru_cache(maxsize=None)
def _qfact_inv(R, n: int):
    return quantum_factorial(R, n).inv()


@lru_cache(maxsize=None)
def quantum_dim(R, n: int):
    """Delta_n = (-1)^n [n+1]; positive on the even colors."""
    d = quantum_integer(R, n + 1)
    return -d if n % 2 else d


@lru_cache(maxsize=None)
def twist(R, n: int):
    """mu_n = (-1)^n A^{n(n+2)}, the eigenvalue of the twist on color n."""
    val = scalar_ring(R).root_power(2 * n * (n + 2))
    return -val if n % 2 else val


@lru_cache(maxsize=None)
def theta(R, a: int, b: int, c: int):
    """Value of the theta network, signed convention: theta(n,n,0) = Delta_n."""
    check_admissible(scalar_ring(R).p, a, b, c)
    i, j, k = (b + c - a) // 2, (a + c - b) // 2, (a + b - c) // 2
    num = (
        quantum_factorial(R, i + j + k + 1)
        * quantum_factorial(R, i)
        * quantum_factorial(R, j)
        * quantum_factorial(R, k)
    )
    val = (
        num
        * _qfact_inv(R, i + j)
        * _qfact_inv(R, j + k)
        * _qfact_inv(R, i + k)
    )
    return -val if (i + j + k) % 2 else val


@lru_cache(maxsize=None)
def _theta_inv(R, a: int, b: int, c: int):
    return theta(R, a, b, c).inv()


@lru_cache(maxsize=None)
def tet(R, a: int, b: int, e: int, c: int, d: int, f: int):
    """Tetrahedral network with admissible faces (a,b,e), (c,d,e), (a,d,f), (b,c,f).

    Degenerates to theta: tet(a, b, e, b, a, 0) = theta(a, b, e).
    """
    S = scalar_ring(R)
    for face in ((a, b, e), (c, d, e), (a, d, f), (b, c, f)):
        check_admissible(S.p, *face)
    v = [(a + b + e) // 2, (c + d + e) // 2, (a + d + f) // 2, (b + c + f) // 2]
    q = [(a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2]
    pref = S.one
    for qq in q:
        for vv in v:
            pref = pref * quantum_factorial(R, qq - vv)
    for edge in (a, b, c, d, e, f):
        pref = pref * _qfact_inv(R, edge)
    total = S.zero
    for s in range(max(v), min(q) + 1):
        if s + 1 >= S.p:
            continue  # [s+1]! vanishes at level p
        term = quantum_factorial(R, s + 1)
        for vv in v:
            term = term * _qfact_inv(R, s - vv)
        for qq in q:
            term = term * _qfact_inv(R, qq - s)
        total = total + (-term if s % 2 else term)
    return pref * total


@lru_cache(maxsize=None)
def sixj(R, a: int, b: int, e: int, c: int, d: int, f: int):
    """Recoupling coefficient carrying the (a,b)(c,d) channel e to (b,c)(a,d) channel f.

    Rows of the resulting change of basis are mutually inverse:
    sum_f sixj(a,b,e,c,d,f) sixj(b,c,f,d,a,e') = delta_{e,e'}.
    """
    val = tet(R, a, b, e, c, d, f) * quantum_dim(R, f)
    return val * _theta_inv(R, a, d, f) * _theta_inv(R, b, c, f)


# -- genus-1 modular data -------------------------------------------------


@lru_cache(maxsize=None)
def t_matrix(p: int) -> PMatrix:
    """Diagonal twist action on the genus-1 basis, ordered by spectral_color_order.

    The diagonal is exactly ((-A)^{i^2-1})_{i=1..(p-1)/2} and the matrix has
    exact multiplicative order p.
    """
    diag = [twist(p, n) for n in spectral_color_order(p)]
    return PMatrix.diagonal(p, diag)


@lru_cache(maxsize=None)
def _holed_torus_s(R, c: int) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """Operator matrix of the S-move on the one-holed torus with boundary
    color c, in the basis {loop color y : (y,y,c) admissible}, and its
    inverse.

    Entry (y, a): eta * Delta_y / theta(y,y,c) * (mu_y mu_a)^{-1} *
    sum_e mu_e (Delta_e / theta(y,a,e)) tet[y y c; a a e].
    At c = 0 it is s_matrix, in natural color order.  The move squares to
    the scalar lambda = (S^2)_00, a root of unity, so S^{-1} = S / lambda.
    """
    S = scalar_ring(R)
    p = S.p
    idx = [y for y in colors(p) if admissible(p, y, y, c)]
    h = eta(R)
    rows = []
    for y in idx:
        pref = h * quantum_dim(R, y) * _theta_inv(R, y, y, c)
        row = []
        for a in idx:
            acc = S.zero
            for e in colors(p):
                if admissible(p, y, a, e):
                    acc = acc + twist(R, e) * quantum_dim(R, e) * _theta_inv(R, y, a, e) * tet(
                        R, y, y, c, a, a, e
                    )
            row.append(pref * (twist(R, y) * twist(R, a)).inv() * acc)
        rows.append(tuple(row))
    lam = S.zero
    for row, top in zip(rows, rows[0]):
        lam = lam + top * row[0]
    lam_inv = lam.inv()
    return tuple(rows), tuple(tuple(lam_inv * x for x in row) for row in rows)


@lru_cache(maxsize=None)
def s_matrix(R):
    """The one-holed-torus S-move at boundary color 0, read in
    spectral_color_order.  It squares to the identity exactly, so it is
    its own inverse, and it generates a projective SL2(Z) action with
    t_matrix.  A PMatrix for p, a read-only array of residues for a
    ResidueSpec."""
    S = scalar_ring(R)
    move = _holed_torus_s(R, 0)[0]
    pos = [colors(S.p).index(n) for n in spectral_color_order(S.p)]
    return S.matrix([[move[i][j] for j in pos] for i in pos])


@lru_cache(maxsize=None)
def kappa(p: int) -> CycElem:
    """Gauss-sum anomaly unit: eta * sum_n Delta_n^2 mu_n.

    Framing changes multiply closed invariants by powers of kappa; all
    obstruction logic downstream is insensitive to them.
    """
    acc = CycElem.zero(p)
    for n in colors(p):
        acc = acc + quantum_dim(p, n) ** 2 * twist(p, n)
    return eta(p) * acc


@lru_cache(maxsize=None)
def kappa_inv(p: int) -> CycElem:
    """kappa(p)^-1, cached like kappa (lens spaces with b > 0 divide by it)."""
    return kappa(p).inv()
