"""The standard symplectic form on F_p^2n and its similitude matrices.

Basis order is (e_1..e_n, f_1..f_n) with <<e_i, f_i>> = 1, so the Gram
matrix is Delta = [[0, I], [-I, 0]].  A matrix N is a scalar similitude
when N^t Delta N = l Delta for some scalar l, which may be 0; l != 0 cuts
out the symplectic similitude group.  Entry (i, j) of N^t Delta N is the
pairing of columns i and j, so symp_scalar_test reads the Gram matrix off
the column pairings.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionError
from .modp import Mat


def pairing(v: tuple, w: tuple, p: int) -> int:
    if len(v) != len(w) or len(v) % 2:
        raise DimensionError("pairing needs two vectors of equal even length")
    n = len(v) // 2
    return sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)) % p


def symp_scalar_test(mat: Mat) -> int | None:
    """Return l with mat^t Delta mat = l Delta, or None if no such scalar.

    The pairing is alternating, so the Gram entries above the diagonal
    decide: <<col_i, col_j>> must be l for j = i + n and 0 otherwise.
    """
    d = mat.nrows
    if d != mat.ncols or d % 2:
        raise DimensionError("expected a square matrix of even size")
    n, p = d // 2, mat.m
    cols = list(zip(*mat.rows))
    l = pairing(cols[0], cols[n], p)
    if all(pairing(cols[i], cols[j], p) == (l if j == i + n else 0)
           for i in range(d) for j in range(i + 1, d)):
        return l
    return None


def all_vectors(dim: int, p: int) -> list:
    return list(product(range(p), repeat=dim))
