"""Exact counting formulas for the endomorphism and automorphism monoids.

Each count is a polynomial in p for fixed n, written once: its body runs in
Z when p is an int and in Z[x] when p is polyz.X.  The three series

    alpha_k : totally isotropic k-subspaces of a 2n-dim symplectic space,
    beta_k  : those lying inside the hyperplane V_1 = {v : v[0] = 0},
    gamma_k : surjective linear maps F_p^{2n} -> F_p^k

are running products over k, whose divisions are exact in both rings and
checked.  The endomorphism counts decompose as

    |End| = |Aut| + p^{2n} * X   (es1, X = sum alpha_k gamma_k)
    |End| = |Aut| + p^{2n} * Y   (es2, Y = sum beta_k gamma_k)

with |Aut(es1)| = p^{2n} (p-1) |Sp(2n)| and |Aut(es2)| = p^{2n} * p^{2n-1}
(p-1) |Sp(2n-2)|.

QUANTITIES is the one table of the nine quantities: the argument each takes
(a subspace dimension k, a group kind, or none), its formula (whose poly
method runs it at X) and an independent brute-force scan from oracle.
formula_value, oracle_value and compute_report look a quantity up there,
and row_args lists its rows at a given n.  They raise ContextError unless p
is an odd prime and n >= 1, and when a quantity lacks the k or group kind
it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import prod
from typing import Callable

from .errors import ContextError, check
from .groups import ES1, ES2, PLAIN_KINDS, require_plain, validate_p_n
from .polyz import ZERO, X, Poly


def _exact(num, den):
    q, r = divmod(num, den)
    check(r == 0, "a running product's division left a remainder")
    return q


def _alphas(p, n: int):
    """alpha_0..alpha_n: alpha_{k+1} = alpha_k (p^{2(n-k)} - 1) / (p^{k+1} - 1)."""
    return accumulate(
        range(n), lambda a, k: _exact(a * (p ** (2 * (n - k)) - 1), p ** (k + 1) - 1),
        initial=1)


def _betas(p, n: int):
    """beta_0..beta_n: 1, then for k >= 1
    beta_k = (p^k (p^{n-k} + 1) [n-1, k] + [n-1, k-1]) prod_{0<i<k} (p^{n-i} + 1),
    carrying both Gaussian binomials and the product from k - 1 to k."""
    yield 1
    low, high, lift = 0, 1, 1  # [n-1, k-1], [n-1, k] and the product at k = 0
    for k in range(1, n + 1):
        low, high = high, _exact(high * (p ** (n - k) - 1), p ** k - 1)
        yield (p ** k * (p ** (n - k) + 1) * high + low) * lift
        lift *= p ** (n - k) + 1


def _gammas(p, n: int):
    """gamma_0..gamma_{2n}: gamma_{k+1} = gamma_k (p^{2n} - p^k), 0 past 2n."""
    return accumulate(range(2 * n), lambda g, k: g * (p ** (2 * n) - p ** k), initial=1)


def _term(series, k: int, last: int):
    """Term k of a series whose terms past index last are 0."""
    return next(islice(series, k, None)) if 0 <= k <= last else 0


def sp_order(n: int, p):
    """|Sp(2n, F_p)|; the empty product gives 1 at n = 0."""
    if n < 0:
        raise ContextError("sp_order needs n >= 0")
    return prod((p ** (2 * j) - 1 for j in range(1, n + 1)), start=p ** (n * n))


def im_phi2_order(n: int, p):
    """Order of the constrained similitude group acting on the es2 quotient."""
    if n < 1:
        raise ContextError("im_phi2_order needs n >= 1")
    return p ** (2 * n - 1) * (p - 1) * sp_order(n - 1, p)


def alpha_k(p, n: int, k: int):
    """Totally isotropic k-subspaces of the standard symplectic F_p^{2n}."""
    return _term(_alphas(p, n), k, n)


def beta_k(p, n: int, k: int):
    """Totally isotropic k-subspaces contained in the hyperplane v[0] = 0."""
    return _term(_betas(p, n), k, n)


def gamma_k(p, n: int, k: int):
    """Surjective linear maps F_p^{2n} -> F_p^k."""
    return _term(_gammas(p, n), k, 2 * n)


def _gamma_sum(p, n: int, terms):
    """sum a_k gamma_k, Horner over gamma's factors: acc = a_k + (p^{2n} - p^k) acc."""
    acc = 0
    for k, a in reversed(list(enumerate(terms))):
        acc = a + (p ** (2 * n) - p ** k) * acc
    return acc


def count_X(p, n: int):
    return _gamma_sum(p, n, _alphas(p, n))


def count_Y(p, n: int):
    return _gamma_sum(p, n, _betas(p, n))


def aut_order(kind: str, p, n: int):
    require_plain(kind, "automorphism counts")
    if kind == ES1:
        return p ** (2 * n) * (p - 1) * sp_order(n, p)
    return p ** (2 * n) * im_phi2_order(n, p)


def end_order(kind: str, p, n: int):
    require_plain(kind, "endomorphism counts")
    if kind == ES1:
        return aut_order(kind, p, n) + p ** (2 * n) * count_X(p, n)
    return aut_order(kind, p, n) + p ** (2 * n) * count_Y(p, n)


@dataclass(frozen=True)
class Quantity:
    """Routes formula(p, n, arg) and oracle(p, n, arg); arg is "k" (a
    subspace dimension), "group" (es1 or es2) or None."""
    arg: str | None
    formula: Callable
    oracle: Callable

    def poly(self, n: int, arg) -> Poly:
        """The formula over Z[x], x standing for p; a constant is lifted."""
        return ZERO + self.formula(X, n, arg)


def _scans():
    from . import oracle  # loads numpy: import on first use, look scans up per call
    return oracle


# every route looks its functions up when called, so a patched one is what runs
QUANTITIES = {
    "alpha_k": Quantity("k", lambda p, n, k: alpha_k(p, n, k),
        lambda p, n, k: _scans().scan_subspaces(2 * n, p, k)),
    "beta_k": Quantity("k", lambda p, n, k: beta_k(p, n, k),
        lambda p, n, k: _scans().scan_subspaces(2 * n, p, k, inside_v1=True)),
    "gamma_k": Quantity("k", lambda p, n, k: gamma_k(p, n, k),
        lambda p, n, k: _scans().scan_surjections(2 * n, p, k)),
    "count_X": Quantity(None, lambda p, n, _: count_X(p, n),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 0)),
    "count_Y": Quantity(None, lambda p, n, _: count_Y(p, n),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 0, es2_constrained=True)),
    "sp_order": Quantity(None, lambda p, n, _: sp_order(n, p),
        lambda p, n, _: _scans().scan_matrices(2 * n, p, 1)),
    "im_phi2_order": Quantity(None, lambda p, n, _: im_phi2_order(n, p),
        lambda p, n, _: _scans().sigma_scan_count(ES2, p, n, True)),
    "aut_order": Quantity("group", lambda p, n, g: aut_order(g, p, n),
        lambda p, n, g: p ** (2 * n) * _scans().sigma_scan_count(g, p, n, True)),
    "end_order": Quantity("group", lambda p, n, g: end_order(g, p, n),
        lambda p, n, g: p ** (2 * n) * _scans().sigma_scan_count(g, p, n, False)),
}


def row_args(quantity: str, n: int, kinds=PLAIN_KINDS) -> list:
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
    if arg == "group" and group_kind not in PLAIN_KINDS:
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
