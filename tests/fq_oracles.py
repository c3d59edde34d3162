"""Pure-Python F_q arithmetic on lists, the oracles for the numpy kernels."""


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
