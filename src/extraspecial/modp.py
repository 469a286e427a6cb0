"""Exact modular arithmetic over Z/m with plain Python integers.

Scalars are canonical residues (ints in [0, m)), vectors are tuples of
residues, matrices are the immutable Mat class below.  Counts that grow
with p and n (subgroup orders, endomorphism totals) are plain Python ints,
which are arbitrary precision, so nothing here ever overflows.
"""

from __future__ import annotations

from .errors import DimensionError, check


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def inv_mod(x: int, m: int) -> int:
    """Multiplicative inverse of x mod m; raises ZeroDivisionError if none."""
    x %= m
    g, s, _ = _xgcd(x, m)
    if g != 1:
        raise ZeroDivisionError(f"{x} is not invertible mod {m}")
    return s % m


def _xgcd(a: int, b: int):
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def half(p: int) -> int:
    """The residue 1/2 mod p; needs p odd."""
    if p % 2 == 0:
        raise ZeroDivisionError("2 is not invertible mod an even modulus")
    return (p + 1) // 2


class Mat:
    """Immutable matrix over Z/m; hashable so canonical forms can be set keys."""

    __slots__ = ("m", "rows")

    def __init__(self, m: int, rows):
        self.m = m
        self.rows = tuple(tuple(x % m for x in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, m: int, n: int) -> "Mat":
        return cls(m, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, r: int, c: int) -> "Mat":
        return cls(m, [[0] * c for _ in range(r)])

    @classmethod
    def from_cols(cls, m: int, cols) -> "Mat":
        cols = [tuple(c) for c in cols]
        return cls(m, [[c[i] for c in cols] for i in range(len(cols[0]))])

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Mat":
        return Mat(self.m, zip(*self.rows)) if self.rows else self

    def __add__(self, other: "Mat") -> "Mat":
        self._compat(other, same_shape=True)
        return Mat(self.m, [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._compat(other, same_shape=True)
        return Mat(self.m, [[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat(self.m, [[-x for x in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        self._compat(other)
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows))
        return Mat(self.m, [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in self.rows])

    def scale(self, c: int) -> "Mat":
        return Mat(self.m, [[c * x for x in r] for r in self.rows])

    def mul_vec(self, v: tuple) -> tuple:
        if len(v) != self.ncols:
            raise DimensionError(f"matrix has {self.ncols} columns, vector has {len(v)} entries")
        return tuple(sum(x * y for x, y in zip(r, v)) % self.m for r in self.rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def submatrix(self, row_range, col_range) -> "Mat":
        return Mat(self.m, [[self.rows[i][j] for j in col_range] for i in row_range])

    def _compat(self, other: "Mat", same_shape: bool = False):
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if self.m != other.m:
            raise DimensionError(f"moduli differ: {self.m} vs {other.m}")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shapes differ")

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.m == other.m and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.m, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.m}, {list(map(list, self.rows))})"


def p_binomial(n: int, k: int, p: int) -> int:
    """Gaussian binomial: the number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    q, r = divmod(num, den)
    check(r == 0, "Gaussian binomial division left a remainder")
    return q
