"""Exact modular arithmetic over Z/m with plain Python integers.

Scalars are canonical residues (ints in [0, m)), vectors are tuples of
residues, matrices are the immutable Mat class below.  Counts that grow
with p and n (subgroup orders, endomorphism totals) are plain Python ints,
which are arbitrary precision, so nothing here ever overflows.
"""

from __future__ import annotations

from .errors import ContextError, DimensionError, check

# Miller-Rabin with the primes 2..41 as bases decides primality exactly below
# PRIME_BOUND (J. Sorenson and J. Webster, Math. Comp. 86, 2017); the bases
# 2..37 alone are exact only below 3.18 * 10^23
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ContextError for an odd p >= PRIME_BOUND."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= PRIME_BOUND:
        raise ContextError(f"primality is decided only below {PRIME_BOUND}, got {p}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in _BASES:
        if a % p == 0:  # p is this base, and passed the smaller ones
            return True
        x = pow(a, (p - 1) >> s, p)  # p is composite unless x = 1 or some x^(2^j) = -1
        if x != 1 and p - 1 not in (pow(x, 2 ** j, p) for j in range(s)):
            return False
    return True


def inv_mod(x: int, m: int) -> int:
    """Multiplicative inverse of x mod m; raises ZeroDivisionError if none."""
    try:
        return pow(x, -1, m)
    except ValueError:
        raise ZeroDivisionError(f"{x % m} is not invertible mod {m}") from None


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

    def scale(self, c: int) -> "Mat":
        return Mat(self.m, [[c * x for x in r] for r in self.rows])

    def submatrix(self, row_range, col_range) -> "Mat":
        return Mat(self.m, [[self.rows[i][j] for j in col_range] for i in row_range])

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
