"""The standard symplectic form on F_p^2n and its similitude matrices.

Basis order is (e_1..e_n, f_1..f_n) with <<e_i, f_i>> = 1, so the Gram
matrix is Delta = [[0, I], [-I, 0]].  A matrix N is a scalar similitude
when N^t Delta N = l Delta for some scalar l, which may be 0; l != 0 cuts
out the symplectic similitude group.

V_1 denotes the span of (e_2..e_n, f_1..f_n), i.e. the vectors whose first
coordinate vanishes; its perp is the line spanned by f_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .config import cap
from .errors import CapExceeded, DimensionError
from .modp import Mat, rref


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


def in_v1(v: tuple) -> bool:
    """First coordinate zero, i.e. no e_1 component."""
    return v[0] == 0


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^dim, keyed by its reduced-echelon basis rows."""

    p: int
    dim: int
    rows: tuple  # rref rows, canonical

    @classmethod
    def spanned_by(cls, p: int, dim: int, vectors) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != dim for v in vectors):
            raise DimensionError("spanning vectors have the wrong length")
        r = rref(Mat(p, vectors)) if vectors else Mat.zeros(p, 0, dim)
        return cls(p, dim, r.rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple:
        return self.rows

    def contains(self, v: tuple) -> bool:
        aug = rref(Mat(self.p, list(self.rows) + [tuple(v)]))
        return aug.rows == self.rows

    def is_isotropic(self) -> bool:
        return all(pairing(a, b, self.p) == 0
                   for i, a in enumerate(self.rows) for b in self.rows[i + 1:])

    def inside_v1(self) -> bool:
        return all(in_v1(r) for r in self.rows)


def all_vectors(dim: int, p: int) -> list:
    return list(product(range(p), repeat=dim))


def enumerate_isotropic(n: int, p: int, k: int, inside_v1: bool = False,
                        limit: int | None = None) -> list[Subspace]:
    """All k-dim isotropic subspaces of F_p^2n, optionally only those in V_1.

    Works by extending ordered tuples of independent vectors, each new vector
    drawn from the common perp of those already chosen; the GL_k overcount is
    removed by collapsing tuples to their canonical echelon form.
    """
    dim = 2 * n
    if k < 0 or k > dim:
        raise DimensionError(f"k must be between 0 and {dim}")
    limit = cap("SUBSPACE_CAP") if limit is None else limit
    if p ** (dim * k) > limit:
        raise CapExceeded(f"isotropic enumeration at p={p}, 2n={dim}, k={k} exceeds cap {limit}")
    if k == 0:
        return [Subspace.spanned_by(p, dim, [])]
    vecs = all_vectors(dim, p)
    if inside_v1:
        vecs = [v for v in vecs if in_v1(v)]
    found: dict[tuple, Subspace] = {}

    def extend(chosen: list):
        for v in vecs:
            if any(pairing(c, v, p) != 0 for c in chosen):
                continue  # must stay inside the common perp
            span = Subspace.spanned_by(p, dim, chosen + [v])
            if span.k == len(chosen):
                continue  # v depends on the chosen vectors
            if span.k == k:
                found[span.rows] = span
            else:
                extend(chosen + [v])

    extend([])
    return sorted(found.values(), key=lambda s: s.rows)
