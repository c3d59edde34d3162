"""Pure-Python F_q arithmetic on lists, the oracles for the numpy kernels."""

from fractions import Fraction


def fq_mat_vec(A, v, q: int):
    """Product A v of a square matrix and a vector over F_q, as a tuple."""
    return tuple(sum(a * x for a, x in zip(row, v)) % q for row in A)


def fq_rref(rows, q: int) -> list[list[int]]:
    """Reduced row echelon form over F_q; returns the nonzero rows."""
    mat = [[u % q for u in r] for r in rows]
    n = len(mat[0]) if mat else 0
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(u * inv) % q for u in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(u - c * v) % q for u, v in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return [r for r in mat[:rank]]


def projective_canon(mat, q: int):
    """Scale a matrix over F_q so its first nonzero entry is 1, as a tuple
    of rows: the hashable key of its projective class."""
    rows = [[x % q for x in row] for row in mat]
    inv = pow(next(x for row in rows for x in row if x), q - 2, q)
    return tuple(tuple(x * inv % q for x in row) for row in rows)


def fq_matmul(A, B, q: int):
    """Product A B of two square matrices over F_q, as nested lists."""
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]


def _identity_canon(n: int, q: int):
    return projective_canon([[int(i == j) for j in range(n)] for i in range(n)], q)


def enumerate_group(generators, q: int):
    """Sorted canonical forms of the projective closure of the generators,
    one element at a time by depth-first search over a set of tuple keys."""
    gens = [projective_canon(g, q) for g in generators]
    ident = _identity_canon(len(gens[0]), q)
    seen, queue = {ident}, [ident]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = projective_canon(fq_matmul(cur, g, q), q)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def tv_curve(elements, generators, weights, q: int, steps: int, lazy: bool):
    """TV distance to uniform at every step of the walk law, kept as a list
    of Fractions over the sorted elements and moved one entry at a time."""
    index = {g: i for i, g in enumerate(elements)}
    N = len(elements)
    gen_maps = []
    for g in generators:
        gq = projective_canon(g, q)
        gen_maps.append([index[projective_canon(fq_matmul(h, gq, q), q)] for h in elements])
    dist = [Fraction(0)] * N
    dist[index[_identity_canon(len(elements[0]), q)]] = Fraction(1)

    def tv(d):
        return sum(abs(x - Fraction(1, N)) for x in d) / 2

    curve = [tv(dist)]
    for _ in range(steps):
        nxt = [Fraction(0)] * N
        for w, gmap in zip(weights, gen_maps):
            for i, mass in enumerate(dist):
                if mass:
                    nxt[gmap[i]] += w * mass
        dist = [(a + b) / 2 for a, b in zip(dist, nxt)] if lazy else nxt
        curve.append(tv(dist))
    return curve
