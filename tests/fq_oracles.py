"""Schoolbook F_q products in pure Python, the oracles for the numpy kernel."""


def fq_mat_vec(A, v, q: int):
    """Product A v of a square matrix and a vector over F_q, as a tuple."""
    return tuple(sum(a * x for a, x in zip(row, v)) % q for row in A)
