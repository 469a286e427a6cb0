"""Extra-special p-groups of order p^(2n+1) for odd p, in explicit coordinates.

Two families, each with a twisted presentation and a symmetrized "tilde"
presentation:

  es1   exponent p.  Coordinates (u, w, z) in F_p^n x F_p^n x F_p with
        (u1,w1,z1).(u2,w2,z2) = (u1+u2, w1+w2, z1+z2+<u1,w2>).
  es1~  same coordinates, cocycle (1/2)<<(u1;w1),(u2;w2)>> built from the
        standard symplectic form.
  es2   exponent p^2.  Coordinates (u_1, u, w_1, w) in
        Z/p^2 x (Z/p)^(n-1) x Z/p x (Z/p)^(n-1) with first coordinate
        u1_1 + u2_1 + p.w2_1.u1_1 + p.<u1,w2>  (bars denote reduction mod p)
        and the remaining coordinates adding componentwise.
  es2~  same coordinates, cocycle p.(1/2)<<(utilde1;wtilde1),(utilde2;wtilde2)>>.

lambda_iso and delta_iso are the coordinate isomorphisms from each tilde
presentation onto its twisted partner.

All four are one law on the quotient vectors v in F_p^2n (the coordinates
read mod p, basis x_1..x_n, y_1..y_n): add the coordinates, add the cocycle
v_a^T M v_b to the central exponent, and reduce.  Each Group holds the law
as data, and this module is the only place that knows it: M (`cocycle`) is
[[0, I], [0, 0]] for es1 and es2 and (1/2)[[0, I], [-I, 0]] for the tilde
kinds; the central exponent s lands as p.s in the Z/p^2 first coordinate
of the es2 shape, whose mod-p^2 sum supplies the carry, and in the last
coordinate z of the es1 shape, so for both the quotient is the first 2n
coordinates mod p.  `Group.mul`/`inv` (one tuple) and `Group.mul_index`
(blocks of rows) read that data, with no branch per kind;
the per-kind formulas above, spelled out, are their test reference in
tests/test_groups.py.  The law fixes one more datum, the power form omega
(`power_form`, x^p = z^(omega . v)): 0 for es1 and e_1 for es2, read off
the ranges once per group (the cocycle's zero diagonal makes x_i^p = p e_i).
With A(., v) = (M - M^t) v (`commutator_functional`), the endomorphism
parameters, the defining relations and the orbits read these data alone.

Element order, centrality, commutators, and the commutator form f (valued in
the exponent of the central generator) are all computed from the group law
itself, so they stay valid oracles for anything derived from closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import operator
from itertools import accumulate, product

from .config import LIMITS, charge, integer
from .errors import ContextError, DimensionError, ParseError, check
from .modp import half, is_odd_prime

ES1 = "es1"
ES2 = "es2"
ES1_TILDE = "es1~"
ES2_TILDE = "es2~"

_KINDS = (ES1, ES2, ES1_TILDE, ES2_TILDE)
PLAIN_KINDS = (ES1, ES2)

# rows per Group.mul_index call when a caller sweeps a whole N x N table:
# memory stays at a few ROW_BLOCK x N arrays
ROW_BLOCK = 32

# config's limit on the groups given whole N x N tables, for callers that branch on it
TABLE_CAP = LIMITS["TABLE_CAP"][0]


def row_blocks(size: int):
    """Slices covering range(size) in consecutive blocks of ROW_BLOCK."""
    return (slice(lo, lo + ROW_BLOCK) for lo in range(0, size, ROW_BLOCK))


def validate_p_n(p: int, n: int):
    """Raise ContextError unless p is an odd prime and n a positive integer."""
    if not is_odd_prime(p):
        raise ContextError(f"p must be an odd prime, got {p}")
    if not isinstance(n, int) or n < 1:
        raise ContextError(f"n must be a positive integer, got {n}")


def require_plain(kind: str, what: str):
    """Raise ContextError unless kind is es1 or es2, for results keyed by
    isomorphism type (the counting formulas); `what` names the result."""
    if kind not in PLAIN_KINDS:
        raise ContextError(f"{what} cover es1/es2 only, got {kind}")


@dataclass(frozen=True)
class GroupId:
    kind: str
    p: int
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContextError(f"unknown group kind {self.kind!r}")
        validate_p_n(self.p, self.n)

    def __str__(self):
        return f"{self.kind}({self.p},{self.n})"


@lru_cache(maxsize=None)
def group(kind: str, p: int, n: int) -> "Group":
    return Group(GroupId(kind, p, n))


class Group:
    """One group from the table above: tuple-level element ops and the batched
    index law `mul_index`."""

    def __init__(self, gid: GroupId):
        self.gid = gid
        self.kind = gid.kind
        self.p = gid.p
        self.n = gid.n
        self.size = gid.p ** (2 * gid.n + 1)
        self.half = half(gid.p)
        es2_shaped = gid.kind in (ES2, ES2_TILDE)
        p, n = self.p, self.n
        if es2_shaped:
            # (u_1, u_2..u_n, w_1, w_2..w_n): 2n coordinates, first mod p^2
            self.ranges = (p * p,) + (p,) * (2 * n - 1)
            segments = (("u1", 1), ("u", n - 1), ("w1", 1), ("w", n - 1))
        else:
            # (u_1..u_n, w_1..w_n, z): 2n+1 coordinates mod p
            self.ranges = (p,) * (2 * n + 1)
            segments = (("u", n), ("w", n), ("z", 1))
        # the text syntax: a name and a coordinate slice per segment, empty ones dropped
        ends = accumulate(width for _, width in segments)
        self.layout = tuple((name, slice(end - width, end))
                            for (name, width), end in zip(segments, ends) if width)
        # the cocycle M on quotient vectors (u; w), v_a^T M v_b mod p, as its
        # nonzero entries (i, j, M[i][j]): M[i][n+i], and M[n+i][i] for the
        # tilde kinds.  These terms are the tuple law; `cocycle` is dense.
        tilde = gid.kind in (ES1_TILDE, ES2_TILDE)
        self._terms = tuple((i, n + i, self.half if tilde else 1) for i in range(n))
        if tilde:
            self._terms += tuple((n + i, i, -self.half % p) for i in range(n))
        # the central generator z: its coordinate slot and its unit there
        self._z_slot, self._z_unit = (0, p) if es2_shaped else (2 * n, 1)
        # the power form, x_i^p = z^omega_i: the cocycle's diagonal is zero, so
        # x_i^p = p e_i, which is 0 unless slot i is z's and p < ranges[i]
        self._omega = tuple(p % r // self._z_unit if i == self._z_slot else 0
                            for i, r in enumerate(self.ranges[:2 * n]))
        self._np_cache = None

    @cached_property
    def radices(self) -> tuple:
        """radices[i], the product of the ranges after slot i: index = sum c_i
        radices[i].  O(n^2 log p) bits, built on first read like `cocycle`."""
        return tuple(accumulate(reversed(self.ranges[1:]), operator.mul, initial=1))[::-1]

    @cached_property
    def z_index(self) -> int:
        """The index of z: z^s times an element with central exponent 0 adds s * z_index."""
        return self._z_unit * self.radices[self._z_slot]

    @cached_property
    def cocycle(self) -> tuple:
        """The dense 2n x 2n cocycle M."""
        M = [[0] * (2 * self.n) for _ in range(2 * self.n)]
        for i, j, c in self._terms:
            M[i][j] = c
        return tuple(map(tuple, M))

    # -- element construction ------------------------------------------------

    def identity(self) -> "Element":
        return Element(self, (0,) * len(self.ranges))

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != len(self.ranges):
            raise DimensionError(
                f"{self.gid} elements have {len(self.ranges)} coordinates, got {len(coords)}")
        return Element(self, tuple(c % r for c, r in zip(coords, self.ranges)))

    def generators(self) -> list:
        """Standard generators x_1..x_n, y_1..y_n in that order.

        In both coordinate shapes x_i is slot i and y_i slot n + i (for es2
        x_1 is the Z/p^2 slot, so it has order p^2).
        """
        width = len(self.ranges)
        return [self.element(tuple(int(k == i) for k in range(width)))
                for i in range(2 * self.n)]

    # -- the group laws ------------------------------------------------------

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self._twisted(list(map(operator.add, a, b)), a, b)

    def inv(self, a: tuple) -> tuple:
        # the negated coordinates plus the central term (-v)^T M (-v) = v^T M v,
        # which makes g g^-1 = e
        return self._twisted(list(map(operator.neg, a)), a, a)

    def _twisted(self, coords: list, a: tuple, b: tuple) -> tuple:
        """coords plus z_unit * v_a^T M v_b in the central slot, reduced by ranges.

        v_a is a's first 2n coordinates, unreduced: z_unit * p divides the
        central slot's range, so the reduction reads them mod p."""
        tw = 0
        for i, j, c in self._terms:
            tw += c * a[i] * b[j]
        coords[self._z_slot] += self._z_unit * tw
        return tuple(map(operator.mod, coords, self.ranges))

    def power(self, a: tuple, k: int) -> tuple:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = (0,) * len(self.ranges)
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def commutator(self, a: tuple, b: tuple) -> tuple:
        return self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))

    def order(self, a: tuple) -> int:
        """1, p or p^2: every group here has exponent p or p^2."""
        e = (0,) * len(self.ranges)
        if a == e:
            return 1
        return self.p if self.power(a, self.p) == e else self.p * self.p

    def is_central(self, a: tuple) -> bool:
        """a is some z^c, c < p: zero but for a multiple of z_unit in z's slot."""
        z = self._z_slot
        return a[z] % self._z_unit == 0 and not any(a[:z]) and not any(a[z + 1:])

    def center_coords(self) -> list:
        """Coordinates of the p central elements z^0..z^(p-1)."""
        return [self.coords_at(c * self.z_index) for c in range(self.p)]

    def power_form(self) -> tuple:
        """omega on G/Z, x^p = z^(omega . v) for x over v: all 0 for the es1
        shape (exponent p), e_1 for the es2 one (x_1 has order p^2)."""
        return self._omega

    def commutator_functional(self, v) -> tuple:
        """A(., v) = (M - M^t) v mod p for a quotient vector v: [x, y] = z^(A(u, v))
        for x over u and y over v.  O(n), from the cocycle's nonzero terms."""
        a = [0] * (2 * self.n)
        for i, j, c in self._terms:
            a[i] += c * v[j]
            a[j] -= c * v[i]
        return tuple(x % self.p for x in a)

    # -- quotient by the center ---------------------------------------------

    def quotient_coords(self, a: tuple) -> tuple:
        """Image in G/Z(G) = F_p^2n, basis (x_1..x_n, y_1..y_n) bar."""
        return tuple(c % self.p for c in a[:2 * self.n])

    def symplectic_f(self, a: tuple, b: tuple) -> int:
        """Exponent c with [a, b] = z^c for the central generator z."""
        q, r = divmod(self.index(self.commutator(a, b)), self.z_index)
        check(r == 0 and q < self.p, "commutator is not central")
        return q

    # -- enumeration ---------------------------------------------------------

    def elements(self):
        """Yield all coordinate tuples in lexicographic order."""
        charge("ELEMENT_CAP", self.size, f"elements of {self.gid}")
        return product(*(range(r) for r in self.ranges))

    def index(self, a: tuple) -> int:
        return sum(map(operator.mul, a, self.radices))

    def coords_at(self, i: int) -> tuple:
        out = []
        for r in self.radices:
            out.append(i // r)
            i %= r
        return tuple(out)

    def coords_matrix(self):
        """All elements as a numpy array, row i = coords_at(i); cached."""
        if self._np_cache is None:
            import numpy as np

            rows = np.array(list(self.elements()), dtype=np.int64)
            self._np_cache = rows
        return self._np_cache

    def mul_index(self, A, B):
        """Indices of a*b for every coordinate row a of A and b of B.

        Returns the (len(A), len(B)) int64 table.  The cocycle is one matrix
        product (V_A M) V_B^T over the quotient vectors, and the index is
        summed one coordinate at a time, so no (len(A), len(B), width) array
        is built; callers sweeping a whole table pass A in ROW_BLOCK rows.
        """
        import numpy as np

        p = self.p
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        M = np.array(self.cocycle, dtype=np.int64)
        tw = (self._quotient_rows(A) @ M % p) @ self._quotient_rows(B).T % p
        out = np.zeros(tw.shape, dtype=np.int64)
        for k, (r, radix) in enumerate(zip(self.ranges, self.radices)):
            s = A[:, k, None] + B[None, :, k]
            if k == self._z_slot:
                s += self._z_unit * tw
            s %= r
            s *= radix
            out += s
        return out

    def _quotient_rows(self, A):
        """Quotient vectors (rows of G/Z(G) = F_p^2n) of coordinate rows."""
        return A[:, :2 * self.n] % self.p

    def __repr__(self):
        return f"Group({self.gid})"


class Element:
    """A group element; thin hashable wrapper over its coordinate tuple."""

    __slots__ = ("group", "coords")

    def __init__(self, group: Group, coords: tuple):
        self.group = group
        self.coords = coords

    def _same(self, other: "Element"):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.group.gid != self.group.gid:
            raise ContextError(f"elements of {self.group.gid} and {other.group.gid} cannot be combined")

    def __mul__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.group, self.group.mul(self.coords, other.coords))

    def __pow__(self, k: int) -> "Element":
        return Element(self.group, self.group.power(self.coords, k))

    def commutator(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.group, self.group.commutator(self.coords, other.coords))

    def order(self) -> int:
        return self.group.order(self.coords)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_central(self) -> bool:
        return self.group.is_central(self.coords)

    def quotient_coords(self) -> tuple:
        return self.group.quotient_coords(self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and other.group.gid == self.group.gid
                and other.coords == self.coords)

    def __hash__(self) -> int:
        return hash((self.group.gid, self.coords))

    def __repr__(self) -> str:
        return format_element(self)

    def __str__(self) -> str:
        return format_element(self)


def symplectic_f(a: Element, b: Element) -> int:
    a._same(b)
    return a.group.symplectic_f(a.coords, b.coords)


def _untwist(e: Element, source: str, target: str) -> Element:
    """Add (1/2)<utilde, wtilde> to the central exponent of a tilde-kind element.

    utilde and wtilde are the two halves of the quotient vector; the central
    exponent sits in the group's central slot with its unit (z for the es1
    shape, p times the first coordinate for the es2 shape).
    """
    g = e.group
    if g.kind != source:
        raise ContextError(f"expected an {source} element, got {g.gid}")
    n, v = g.n, g.quotient_coords(e.coords)
    coords = list(e.coords)
    coords[g._z_slot] += g._z_unit * g.half * sum(v[i] * v[n + i] for i in range(n))
    return group(target, g.p, n).element(coords)


def lambda_iso(e: Element) -> Element:
    """Isomorphism es1~ -> es1: (u, w, z) -> (u, w, z + (1/2)<u,w>)."""
    return _untwist(e, ES1_TILDE, ES1)


def delta_iso(e: Element) -> Element:
    """Isomorphism es2~ -> es2: adds p.(1/2)<utilde, wtilde> to the first coordinate."""
    return _untwist(e, ES2_TILDE, ES2)


# -- text syntax -------------------------------------------------------------
#
#   es1(p,n):[u_1,..,u_n|w_1,..,w_n|z]
#   es2(p,n):[u_1|u_2,..,u_n|w_1|w_2,..,w_n]      (n >= 2)
#   es2(p,1):[u_1|w_1]
#
# The segments are the group's `layout`, read by one loop each way.  Output
# is canonical; parsing accepts optional whitespace around tokens.


def parse_group_spec(text: str) -> Group:
    gid = parse_group_id(text)
    return group(gid.kind, gid.p, gid.n)


def parse_group_id(text: str) -> GroupId:
    """The validated (kind, p, n) of a group spec, with no group built."""
    s = text.strip()
    try:
        kind, rest = s.split("(", 1)
        body, tail = rest.split(")", 1)
        if tail.strip():
            raise ValueError
        ps, ns = body.split(",")
        p, n = integer(ps), integer(ns)
    except ValueError:
        raise ParseError(f"expected group spec like es1(3,1), got {text!r}", 0) from None
    kind = kind.strip()
    if kind not in PLAIN_KINDS:
        raise ParseError(f"unknown group kind {kind!r}", 0)
    try:
        return GroupId(kind, p, n)
    except ContextError as exc:
        raise ParseError(str(exc), 0) from None


def parse_ints(text: str, what: str, offset: int = 0, skip_empty: bool = False) -> tuple:
    """The comma-separated integers of text, none if it is blank.  A blank entry
    is dropped with skip_empty, else an error naming its position from offset."""
    out = []
    pos = offset
    for tok in text.split(",") if text.strip() else ():
        if tok.strip() or not skip_empty:
            try:
                out.append(integer(tok))
            except ValueError:
                raise ParseError(f"{what} has a non-integer entry {tok.strip()!r}",
                                 pos + len(tok) - len(tok.lstrip())) from None
        pos += len(tok) + 1
    return tuple(out)


def parse_element(text: str) -> Element:
    if ":" not in text:
        raise ParseError("expected ':' separating group spec from coordinates", len(text))
    spec, _, body = text.partition(":")
    g = parse_group_spec(spec)
    body_off = len(text) - len(body.lstrip())  # the body's first character
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("coordinates must be enclosed in [...]", body_off)
    segs = body[1:-1].split("|")
    shape = "|".join(name for name, _ in g.layout)
    widths = [sl.stop - sl.start for _, sl in g.layout]
    wrong = ParseError(f"{g.gid} elements use [{shape}] with "
                       f"{'+'.join(map(str, widths))} coordinates", body_off)
    if len(segs) != len(widths):
        raise wrong
    offsets = accumulate((len(seg) + 1 for seg in segs), initial=body_off + 1)
    parts = [parse_ints(seg, f"segment {name}", off)
             for seg, (name, _), off in zip(segs, g.layout, offsets)]
    if [len(part) for part in parts] != widths:
        raise wrong
    return g.element(sum(parts, ()))


def format_element(e: Element) -> str:
    segs = "|".join(",".join(map(str, e.coords[sl])) for _, sl in e.group.layout)
    return f"{e.group.gid}:[{segs}]"
