"""Exact counting formulas for the endomorphism and automorphism monoids.

Everything here but the oracle routes is closed-form big-integer
arithmetic.  The three subspace series are

    alpha_k : totally isotropic k-subspaces of a 2n-dim symplectic space,
    beta_k  : those lying inside the hyperplane V_1 = {v : v[0] = 0},
    gamma_k : surjective linear maps F_p^{2n} -> F_p^k,

and the endomorphism counts decompose as

    |End| = |Aut| + p^{2n} * X   (es1, X = sum alpha_k gamma_k)
    |End| = |Aut| + p^{2n} * Y   (es2, Y = sum beta_k gamma_k)

with |Aut(es1)| = p^{2n} (p-1) |Sp(2n)| and |Aut(es2)| = p^{2n} * p^{2n-1}
(p-1) |Sp(2n-2)|.  Each formula has a _poly twin returning the counting
polynomial in p.

QUANTITIES is the one table of the nine quantities.  Each entry names the
argument it takes (a subspace dimension k, a group kind, or none) and its
three routes: the closed form, the polynomial twin and an independent
brute-force scan from oracle.  formula_value, oracle_value and
compute_report look a quantity up there, and row_args lists its rows at a
given n.  They raise ContextError unless p is an odd prime and n >= 1, and
when a quantity lacks the k or group kind it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ContextError
from .groups import ES1, ES2, validate_p_n
from .modp import p_binomial
from .polyz import ONE, ZERO, Poly, gaussian_binomial_poly, prod


def sp_order(n: int, p: int) -> int:
    """|Sp(2n, F_p)|; the empty product gives 1 at n = 0."""
    if n < 0:
        raise ContextError("sp_order needs n >= 0")
    out = p ** (n * n)
    for j in range(1, n + 1):
        out *= p ** (2 * j) - 1
    return out


def im_phi2_order(n: int, p: int) -> int:
    """Order of the constrained similitude group acting on the es2 quotient."""
    if n < 1:
        raise ContextError("im_phi2_order needs n >= 1")
    return p ** (2 * n - 1) * (p - 1) * sp_order(n - 1, p)


def alpha_k(p: int, n: int, k: int) -> int:
    """Totally isotropic k-subspaces of the standard symplectic F_p^{2n}."""
    if k < 0 or k > n:
        return 0
    out = p_binomial(n, k, p)
    for i in range(k):
        out *= p ** (n - i) + 1
    return out


def beta_k(p: int, n: int, k: int) -> int:
    """Totally isotropic k-subspaces contained in the hyperplane v[0] = 0."""
    if k < 0 or k > n:
        return 0
    if k == 0:
        return 1
    if k == 1:
        return p_binomial(2 * n - 1, 1, p)
    head = (p ** k * (p ** (n - k) + 1) * p_binomial(n - 1, k, p)
            + p_binomial(n - 1, k - 1, p))
    for i in range(1, k):
        head *= p ** (n - i) + 1
    return head


def gamma_k(p: int, n: int, k: int) -> int:
    """Surjective linear maps F_p^{2n} -> F_p^k, by inclusion-exclusion."""
    if k < 0:
        return 0
    vals = [1]
    for m in range(1, k + 1):
        total = p ** (2 * n * m)
        for i in range(m):
            total -= p_binomial(m, i, p) * vals[i]
        vals.append(total)
    return vals[k]


def count_X(p: int, n: int) -> int:
    return sum(alpha_k(p, n, k) * gamma_k(p, n, k) for k in range(n + 1))


def count_Y(p: int, n: int) -> int:
    return sum(beta_k(p, n, k) * gamma_k(p, n, k) for k in range(n + 1))


def aut_order(kind: str, p: int, n: int) -> int:
    if kind == ES1:
        return p ** (2 * n) * (p - 1) * sp_order(n, p)
    if kind == ES2:
        return p ** (2 * n) * im_phi2_order(n, p)
    raise ContextError(f"automorphism count covers es1/es2, got {kind!r}")


def end_order(kind: str, p: int, n: int) -> int:
    if kind == ES1:
        return aut_order(kind, p, n) + p ** (2 * n) * count_X(p, n)
    if kind == ES2:
        return aut_order(kind, p, n) + p ** (2 * n) * count_Y(p, n)
    raise ContextError(f"endomorphism count covers es1/es2, got {kind!r}")


# polynomial twins: same recursions over Z[x], x standing for p

def sp_order_poly(n: int) -> Poly:
    return prod([Poly.x_power(n * n)]
                + [Poly.x_power(2 * j) - ONE for j in range(1, n + 1)])


def im_phi2_order_poly(n: int) -> Poly:
    return prod([Poly.x_power(2 * n - 1), Poly.x_power(1) - ONE,
                 sp_order_poly(n - 1)])


def alpha_poly(n: int, k: int) -> Poly:
    if k < 0 or k > n:
        return ZERO
    return gaussian_binomial_poly(n, k) * prod(
        Poly.x_power(n - i) + ONE for i in range(k))


def beta_poly(n: int, k: int) -> Poly:
    if k < 0 or k > n:
        return ZERO
    if k == 0:
        return ONE
    if k == 1:
        return gaussian_binomial_poly(2 * n - 1, 1)
    head = (Poly.x_power(k) * (Poly.x_power(n - k) + ONE)
            * gaussian_binomial_poly(n - 1, k)
            + gaussian_binomial_poly(n - 1, k - 1))
    return head * prod(Poly.x_power(n - i) + ONE for i in range(1, k))


def gamma_poly(n: int, k: int) -> Poly:
    vals = [ONE]
    for m in range(1, k + 1):
        total = Poly.x_power(2 * n * m)
        for i in range(m):
            total = total - gaussian_binomial_poly(m, i) * vals[i]
        vals.append(total)
    return vals[k]


def count_X_poly(n: int) -> Poly:
    return sum((alpha_poly(n, k) * gamma_poly(n, k) for k in range(n + 1)), ZERO)


def count_Y_poly(n: int) -> Poly:
    return sum((beta_poly(n, k) * gamma_poly(n, k) for k in range(n + 1)), ZERO)


def aut_order_poly(kind: str, n: int) -> Poly:
    base = Poly.x_power(2 * n)
    if kind == ES1:
        return base * (Poly.x_power(1) - ONE) * sp_order_poly(n)
    if kind == ES2:
        return base * im_phi2_order_poly(n)
    raise ContextError(f"automorphism count covers es1/es2, got {kind!r}")


def end_order_poly(kind: str, n: int) -> Poly:
    tail = count_X_poly(n) if kind == ES1 else count_Y_poly(n)
    return aut_order_poly(kind, n) + Poly.x_power(2 * n) * tail


@dataclass(frozen=True)
class Quantity:
    """Routes formula(p, n, arg), poly(n, arg) and oracle(p, n, arg); arg is
    "k" (a subspace dimension), "group" (es1 or es2) or None."""
    arg: str | None
    formula: Callable
    poly: Callable
    oracle: Callable


def _scans():
    from . import oracle  # loads numpy: import on first use, look scans up per call
    return oracle


# every route looks its functions up when called, so a patched one is what runs
QUANTITIES = {
    "alpha_k": Quantity(
        "k", lambda p, n, k: alpha_k(p, n, k), lambda n, k: alpha_poly(n, k),
        lambda p, n, k: _scans().scan_subspaces(2 * n, p, k, isotropic=True)),
    "beta_k": Quantity(
        "k", lambda p, n, k: beta_k(p, n, k), lambda n, k: beta_poly(n, k),
        lambda p, n, k: _scans().scan_subspaces(2 * n, p, k, isotropic=True, inside_v1=True)),
    "gamma_k": Quantity(
        "k", lambda p, n, k: gamma_k(p, n, k), lambda n, k: gamma_poly(n, k),
        lambda p, n, k: _scans().scan_surjections(2 * n, p, k)),
    "count_X": Quantity(
        None, lambda p, n, _: count_X(p, n), lambda n, _: count_X_poly(n),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 0)),
    "count_Y": Quantity(
        None, lambda p, n, _: count_Y(p, n), lambda n, _: count_Y_poly(n),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 0, image_in_v1=True)),
    "sp_order": Quantity(
        None, lambda p, n, _: sp_order(n, p), lambda n, _: sp_order_poly(n),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 1)),
    "im_phi2_order": Quantity(
        None, lambda p, n, _: im_phi2_order(n, p), lambda n, _: im_phi2_order_poly(n),
        lambda p, n, _: _scans().sigma_scan_count(ES2, p, n, True)),
    "aut_order": Quantity(
        "group", lambda p, n, g: aut_order(g, p, n), lambda n, g: aut_order_poly(g, n),
        lambda p, n, g: p ** (2 * n) * _scans().sigma_scan_count(g, p, n, True)),
    "end_order": Quantity(
        "group", lambda p, n, g: end_order(g, p, n), lambda n, g: end_order_poly(g, n),
        lambda p, n, g: p ** (2 * n) * _scans().sigma_scan_count(g, p, n, False)),
}


def row_args(quantity: str, n: int, kinds=(ES1, ES2)) -> list:
    """(k, group kind) per row of quantity at n: k in 0..n, kind in kinds, or neither."""
    arg = QUANTITIES[quantity].arg
    if arg == "k":
        return [(k, None) for k in range(n + 1)]
    if arg == "group":
        return [(None, kind) for kind in kinds]
    return [(None, None)]


@dataclass
class CountReport:
    quantity: str
    group: str | None
    p: int
    n: int
    k: int | None
    formula_value: int
    oracle_value: int | None = None
    match: bool | None = None

    def to_json_dict(self) -> dict:
        return {"quantity": self.quantity, "group": self.group,
                "p": self.p, "n": self.n, "k": self.k,
                "formula": self.formula_value,
                "oracle": self.oracle_value,
                "match": self.match}


def validate_request(quantity: str | None, p: int, n: int, k: int | None = None,
                     group_kind: str | None = None):
    """Raise ContextError for an invalid (p, n), an unknown quantity, a
    missing or negative k, a missing group kind, or a k or group kind the
    quantity does not take; return the argument its routes take.  k > n is
    valid: those counts are 0."""
    validate_p_n(p, n)
    if quantity is None:  # (p, n) alone
        return None
    if quantity not in QUANTITIES:
        raise ContextError(f"unknown quantity {quantity!r}")
    arg = QUANTITIES[quantity].arg
    if arg == "k" and (k is None or k < 0):
        raise ContextError(f"{quantity} needs a subspace dimension k >= 0, got {k}")
    if arg == "group" and group_kind not in (ES1, ES2):
        raise ContextError(f"{quantity} needs a group kind es1 or es2")
    for name, value in (("k", k), ("group", group_kind)):
        if value is not None and arg != name:
            raise ContextError(f"{quantity} takes no {name}, got {value}")
    return {"k": k, "group": group_kind}.get(arg)


def formula_value(quantity: str, p: int, n: int, k: int | None = None,
                  group_kind: str | None = None) -> int:
    arg = validate_request(quantity, p, n, k, group_kind)
    return QUANTITIES[quantity].formula(p, n, arg)


def oracle_value(quantity: str, p: int, n: int, k: int | None = None,
                 group_kind: str | None = None) -> int:
    """Independent recomputation by direct scan, in this one process.

    Raises CapExceeded when the search space is out of reach, and
    ContextError as formula_value does or when no scan covers the size.
    """
    arg = validate_request(quantity, p, n, k, group_kind)
    return QUANTITIES[quantity].oracle(p, n, arg)


def compute_report(quantity: str, p: int, n: int, k: int | None = None,
                   group_kind: str | None = None, oracle: bool = False) -> CountReport:
    fv = formula_value(quantity, p, n, k, group_kind)
    rep = CountReport(quantity, group_kind, p, n, k, fv)
    if oracle:
        ov = oracle_value(quantity, p, n, k, group_kind)
        rep.oracle_value = ov
        rep.match = (ov == fv)
    return rep
