"""Dense univariate polynomials with integer coefficients.

Each counting formula is written once, for p an int or the indeterminate X
below, so Poly has just what those bodies use: +, - and * with an int on
either side, unary minus, ** by an int and divmod by a monic divisor.  The
counts in Z[x] make coefficient facts such as non-negativity checkable.
"""

from __future__ import annotations

from .errors import check


def _lift(v) -> "Poly":
    return v if isinstance(v, Poly) else Poly((v,))


class Poly:
    """Polynomial in one variable over Z; coeffs[i] multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other) -> "Poly":
        a, b = self.coeffs, _lift(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + -_lift(other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        a, b = self.coeffs, _lift(other).coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        check(k >= 0, f"Poly powers need an exponent >= 0, got {k}")
        out, base = Poly((1,)), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other) -> tuple:
        """(quotient, remainder) by a monic divisor, so both stay in Z[x]."""
        d = _lift(other)
        check(d.coeffs[-1:] == (1,), f"Poly division needs a monic divisor, got {d}")
        rem = list(self.coeffs)
        terms = [(j, y) for j, y in enumerate(d.coeffs) if y]
        quot = [0] * max(len(rem) - d.degree, 0)
        for i in reversed(range(len(quot))):
            c = quot[i] = rem[i + d.degree]
            if c:
                for j, y in terms:
                    rem[i + j] -= c * y
        return Poly(quot), Poly(rem[:d.degree])

    def eval(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, (Poly, int)) and self.coeffs == _lift(other).coeffs

    def __hash__(self) -> int:
        # a constant hashes like the int it equals
        return hash(self.coeffs if self.degree > 0 else self.eval(0))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


ZERO = Poly()
X = Poly((0, 1))
