"""The standard symplectic form on F_p^2n and its similitude matrices.

Basis order is (e_1..e_n, f_1..f_n) with <<e_i, f_i>> = 1, so the Gram
matrix is Delta = [[0, I], [-I, 0]].  A matrix N is a scalar similitude
when N^t Delta N = l Delta for some scalar l, which may be 0; l != 0 cuts
out the symplectic similitude group.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionError
from .modp import Mat


def delta_matrix(n: int, p: int) -> Mat:
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = -1
    return Mat(p, rows)


def pairing(v: tuple, w: tuple, p: int) -> int:
    if len(v) != len(w) or len(v) % 2:
        raise DimensionError("pairing needs two vectors of equal even length")
    n = len(v) // 2
    return sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)) % p


def symp_scalar_test(mat: Mat) -> int | None:
    """Return l with mat^t Delta mat = l Delta, or None if no such scalar."""
    d = mat.nrows
    if d != mat.ncols or d % 2:
        raise DimensionError("expected a square matrix of even size")
    n = d // 2
    delta = delta_matrix(n, mat.m)
    gram = mat.transpose() * delta * mat
    l = gram.entry(0, n)
    if gram == delta.scale(l):
        return l
    return None


def is_sp_scalar(mat: Mat) -> bool:
    """Membership in the symplectic similitude group (nonzero scalar)."""
    l = symp_scalar_test(mat)
    return l is not None and l % mat.m != 0


def all_vectors(dim: int, p: int) -> list:
    return list(product(range(p), repeat=dim))
