"""Automorphism orbits, endomorphism images, and the degeneration relation.

For es1 the orbits under the automorphism group are {e}, Z(G)\\{e}, and
G\\Z(G); the endomorphism image of an element is correspondingly {e}, Z(G),
or G, and "lies in the image of" is a total order on the three orbits.

For es2 write H for the index-p subgroup of p-th powers' preimages
(first coordinate divisible by p) and K = Z(H) (u and w blocks zero).
The orbits are {e}, Z(G)\\{e}, one orbit O_b = pZ/p^2 x {0} x {b} x {0}
for each b != 0, all of G\\H, and (when n > 1) H\\K.  Elements of
H\\Z(G) share the endomorphism image H even though they fall into p
distinct orbits, which kills any partial order on orbits: two different
O_b orbits degenerate onto each other without being automorphic.

ORBIT_TABLE writes this inventory once: per kind, one row per orbit tag
with its size (as text and at (p, n)) and image class, in the order of the
es1 chain and of the es2 orbit sizes.  The orbit labels and sizes, the
image classes, the es1 chain and the CLI's `orbits` command all read it.

orbits_bruteforce recomputes the partition by applying every automorphism
to every element, so the closed-form classifier above can be checked
against it wholesale; it and the es1 order check read each family's image
set of every element, stacked over quotient matrices (morphisms.image_sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

from .config import charge
from .errors import ContextError
from .groups import ES1, ES2, Element, Group, GroupId
from .modp import Mat, inv_mod
from .morphisms import build_endo, family_images, image_sets

IDENTITY = "IDENTITY"
CENTRAL_NONID = "CENTRAL_NONID"
ES1_NONCENTRAL = "ES1_NONCENTRAL"
ES2_OB = "ES2_OB"
ES2_ORDER_P2 = "ES2_ORDER_P2"
ES2_H_MINUS_K = "ES2_H_MINUS_K"

TRIVIAL = "TRIVIAL"
CENTER = "CENTER"
SUBGROUP_H = "SUBGROUP_H"
WHOLE_GROUP = "WHOLE_GROUP"

PARTIAL_ORDER = "PARTIAL_ORDER"
NO_PARTIAL_ORDER = "NO_PARTIAL_ORDER"


@dataclass(frozen=True)
class OrbitLabel:
    tag: str
    b: int | None = None  # the w_1 value for ES2_OB orbits

    def __str__(self):
        if self.b is not None:
            return f"{self.tag}({self.b})"
        return self.tag


def ob_label(b: int) -> OrbitLabel:
    return OrbitLabel(ES2_OB, b)


class OrbitRow(NamedTuple):
    tag: str
    formula: str  # the orbit size as text, as the `orbits` command prints it
    size: Callable[[int, int], int]  # the same at (p, n); 0 means no such orbit
    image: str  # the image class of the orbit's elements


_CENTRE_ROWS = (OrbitRow(IDENTITY, "1", lambda p, n: 1, TRIVIAL),
                OrbitRow(CENTRAL_NONID, "p-1", lambda p, n: p - 1, CENTER))
# the ES2_OB row stands for the p - 1 orbits O_b, b = 1..p-1, each of size p
ORBIT_TABLE = {
    ES1: _CENTRE_ROWS + (
        OrbitRow(ES1_NONCENTRAL, "p^(2n+1)-p", lambda p, n: p ** (2 * n + 1) - p, WHOLE_GROUP),),
    ES2: _CENTRE_ROWS + (
        OrbitRow(ES2_OB, "p", lambda p, n: p, SUBGROUP_H),
        OrbitRow(ES2_H_MINUS_K, "p^(2n)-p^2", lambda p, n: p ** (2 * n) - p * p, SUBGROUP_H),
        OrbitRow(ES2_ORDER_P2, "p^(2n+1)-p^(2n)", lambda p, n: p ** (2 * n + 1) - p ** (2 * n),
                 WHOLE_GROUP)),
}


def _plain_only(g: Group | GroupId) -> tuple:
    """g's rows of ORBIT_TABLE; ContextError for the kinds it does not cover."""
    if g.kind not in ORBIT_TABLE:
        raise ContextError(f"orbit classification covers es1/es2 only, got {g.kind}")
    return ORBIT_TABLE[g.kind]


def orbit_row(g: Group | GroupId, tag: str) -> OrbitRow:
    """The row of one orbit tag in g's table."""
    row = next((r for r in _plain_only(g) if r.tag == tag), None)
    if row is None:
        raise ContextError(f"{tag} is no orbit tag of {g.kind}({g.p},{g.n})")
    return row


def in_h(e: Element) -> bool:
    """Membership in the index-p subgroup H of es2 (first coordinate in pZ)."""
    g = e.group
    if g.kind != ES2:
        raise ContextError(f"H is defined inside es2 groups, got {g.gid}")
    return e.coords[0] % g.p == 0


def in_k(e: Element) -> bool:
    """Membership in K = Z(H): first coordinate in pZ, u and w blocks zero."""
    g = e.group
    if g.kind != ES2:
        raise ContextError(f"K is defined inside es2 groups, got {g.gid}")
    c = e.coords
    n = g.n
    return c[0] % g.p == 0 and all(x == 0 for x in c[1:n]) and all(x == 0 for x in c[n + 1:])


def classify(e: Element) -> OrbitLabel:
    """Closed-form automorphism-orbit label of an element."""
    g = e.group
    _plain_only(g)
    if e.is_identity():
        return OrbitLabel(IDENTITY)
    if e.is_central():
        return OrbitLabel(CENTRAL_NONID)
    if g.kind == ES1:
        return OrbitLabel(ES1_NONCENTRAL)
    if not in_h(e):
        return OrbitLabel(ES2_ORDER_P2)
    if in_k(e):
        return ob_label(e.coords[g.n])  # w_1 != 0 here, else e would be central
    return OrbitLabel(ES2_H_MINUS_K)


def orbit_labels(g: Group | GroupId) -> list[OrbitLabel]:
    """All orbit labels of g in table order, identity first, largest orbit last;
    g's kind, p and n are all that is read."""
    return [OrbitLabel(r.tag, b) for r in _plain_only(g) if r.size(g.p, g.n)
            for b in (range(1, g.p) if r.tag == ES2_OB else (None,))]


def label_count(g: Group | GroupId) -> int:
    """len(orbit_labels(g)), without listing them."""
    return sum(g.p - 1 if r.tag == ES2_OB else 1 for r in _plain_only(g) if r.size(g.p, g.n))


def orbit_cardinality(label: OrbitLabel, g: Group | GroupId) -> int:
    """The size of label's orbit, for a label of orbit_labels(g), decided
    without listing them: b is one of 1..p-1 for ES2_OB, None for the rest."""
    size = orbit_row(g, label.tag).size(g.p, g.n)
    ob = label.tag == ES2_OB
    if not size or (label.b is None) == ob or ob and not 0 < label.b < g.p:
        raise ContextError(f"{label} is no orbit label of {g.kind}({g.p},{g.n})")
    return size


def endo_image_class(e: Element) -> str:
    """Which subgroup {m(e) : m an endomorphism} fills out: the image class
    of the row of e's orbit."""
    return orbit_row(e.group, classify(e).tag).image


def image_contains(g: Group, image_class: str, coords: tuple) -> bool:
    if image_class == TRIVIAL:
        return all(c == 0 for c in coords)
    if image_class == CENTER:
        return g.is_central(coords)
    if image_class == SUBGROUP_H:
        return coords[0] % g.p == 0
    if image_class == WHOLE_GROUP:
        return True
    raise ContextError(f"unknown image class {image_class}")


def image_subgroup_coords(g: Group, image_class: str) -> set:
    return {c for c in g.elements() if image_contains(g, image_class, c)}


def endo_image_set_bruteforce(e: Element) -> set:
    """Coordinates of m(e) over every endomorphism m, by full enumeration."""
    import numpy as np

    g = e.group
    row = np.array([e.coords], dtype=np.int64)
    return {g.coords_at(i) for _, block in image_sets(g, row)
            for i in block.ravel().tolist()}


def degeneration(a: Element, b: Element) -> bool:
    """True when some endomorphism sends a to b (closed form via image classes)."""
    if a.group.gid != b.group.gid:
        raise ContextError("degeneration compares elements of one group")
    return image_contains(a.group, endo_image_class(a), b.coords)


def _reach_tables(g: Group, invertible_only: bool, limit: int | None):
    """(reach under every morphism walked, reach under the automorphisms).

    One walk over the morphisms: the blocks of scalar s != 0 are the
    automorphisms, so without invertible_only the automorphism table comes
    from the same pass as the endomorphism one (and is the same array with
    it).  Each morphisms.image_sets block is marked by one flat scatter of
    row * N + image.  Refused past TABLE_CAP elements, the limit of every
    N x N table, and past the morphism cap before any image
    (morphisms._charged).
    """
    import numpy as np

    N = g.size
    charge("TABLE_CAP", N, f"reachability table for {g.gid}")
    auto = np.zeros((N, N), dtype=bool)
    reach = auto if invertible_only else np.zeros((N, N), dtype=bool)
    offset = np.arange(N)[:, None] * N
    for s, block in image_sets(g, g.coords_matrix(), invertible_only, limit):
        # reshape is a view: both tables are contiguous
        (auto if s else reach).reshape(-1)[offset + block] = True
    if reach is not auto:
        reach |= auto
    return reach, auto


def _partition(g: Group, reach) -> list[frozenset]:
    """The classes of an automorphism reach table, rows of members checked equal."""
    import numpy as np

    partition: dict[bytes, list] = {}
    for i in range(g.size):
        partition.setdefault(reach[i].tobytes(), []).append(i)
    classes = []
    for key, members in partition.items():
        support = set(np.flatnonzero(np.frombuffer(key, dtype=bool)).tolist())
        if support != set(members):
            raise AssertionError("image rows do not form a partition")
        classes.append(frozenset(g.coords_at(i) for i in members))
    return sorted(classes, key=lambda c: (len(c), min(c)))


def orbits_bruteforce(g: Group) -> list[frozenset]:
    """The exact orbit partition under the full automorphism group.

    Every automorphism is applied to every element, as each family's image
    set (morphisms.image_sets), and marked in a dense reachability matrix
    (`_reach_tables`).  Since the automorphisms form a group, the image sets
    are precisely the orbits.  Rows of members are asserted identical before
    returning.
    """
    _plain_only(g)
    return _partition(g, _reach_tables(g, True, None)[0])


@dataclass
class DegenerationReport:
    group: str
    verdict: str
    order_chains: tuple  # strict (lower, higher) label-string pairs, es1 only
    witness: tuple | None  # (Element, Element) in distinct mutually-degenerate orbits
    witness_endos: tuple | None  # morphisms sending witness[0]->witness[1] and back
    verified: bool

    def to_json_dict(self) -> dict:
        d = {"group": self.group, "verdict": self.verdict,
             "order_chains": [list(c) for c in self.order_chains],
             "verified": self.verified}
        if self.witness is not None:
            d["witness"] = [str(w) for w in self.witness]
        if self.witness_endos is not None:
            d["witness_endos"] = [m.to_json_dict() for m in self.witness_endos]
        return d


def _es2_witness(g: Group):
    """O_1 and O_2 representatives plus explicit endomorphisms between them.

    With A = C = D = 0, a = 0 the parametrization degenerates to
    (u_1, u, w_1, w) -> (p beta(wtilde), 0, B wtilde); taking beta = 0 and
    B = c Id moves w_1 = 1 to w_1 = c, so c = 2 and c = inv(2) swap the
    representatives.
    """
    p, n = g.p, g.n
    zero = Mat.zeros(p, n, n)
    g1 = g.element((0,) * n + (1,) + (0,) * (n - 1))
    g2 = g.element((0,) * n + (2,) + (0,) * (n - 1))
    fwd = build_endo(g, zero, Mat.identity(p, n).scale(2), zero, zero,
                     (0,) * (n - 1), (0,) * n, 0)
    back = build_endo(g, zero, Mat.identity(p, n).scale(inv_mod(2, p)), zero, zero,
                      (0,) * (n - 1), (0,) * n, 0)
    return g1, g2, fwd, back


def partial_order_report(g: Group, verify: bool = True,
                         limit: int | None = None) -> DegenerationReport:
    """Does degeneration order the orbits?  Yes for es1, no for es2.

    With verify=True the verdict is checked at desk scale: for es1 the brute
    orbit partition and brute image sets must realize the stated total chain;
    for es2 the witness pair must be exchanged by the exhibited endomorphisms
    yet lie in different orbits of the full automorphism group.  Both checks
    apply every morphism: es1 through morphisms.image_sets, es2 through
    family_images on the first witness's row, a 1 x p^2n block per sigma.
    """
    rows = _plain_only(g)
    if g.kind == ES1:
        chains = tuple(combinations((r.tag for r in rows), 2))  # the rows' order
        verified = False
        if verify:
            _verify_es1_total_order(g, limit)
            verified = True
        return DegenerationReport(str(g.gid), PARTIAL_ORDER, chains, None, None, verified)
    g1, g2, fwd, back = _es2_witness(g)
    verified = False
    if verify:
        import numpy as np

        if fwd.apply(g1) != g2 or back.apply(g2) != g1:
            raise AssertionError("witness endomorphisms do not exchange the witness pair")
        row = np.array([g1.coords], dtype=np.int64)
        target = g.index(g2.coords)
        for _, block in family_images(g, row, True, limit):
            if (block == target).any():
                raise AssertionError("witness pair unexpectedly automorphic")
        verified = True
    return DegenerationReport(str(g.gid), NO_PARTIAL_ORDER, (), (g1, g2), (fwd, back), verified)


def _verify_es1_total_order(g: Group, limit: int | None):
    """Exhaustively confirm the degeneration chain on a desk-scale es1 group.

    One walk over the endomorphisms fills both the degeneration table and,
    from its invertible blocks, the automorphism table of the orbits.
    """
    reach, auto = _reach_tables(g, False, limit)
    # brute degeneration must agree with the closed form everywhere: row i is
    # the membership mask of element i's image class
    coords = list(g.elements())
    classes = [endo_image_class(Element(g, c)) for c in coords]
    masks = {cls: [image_contains(g, cls, c) for c in coords] for cls in set(classes)}
    if reach.tolist() != [masks[cls] for cls in classes]:
        raise AssertionError("brute degeneration disagrees with image classes")
    # on orbits: reflexive, antisymmetric, total
    partition = _partition(g, auto)
    reps = [g.index(min(c)) for c in partition]
    for i, r in enumerate(reps):
        for j, s in enumerate(reps):
            fwd = reach[r, s]
            bwd = reach[s, r]
            if i == j and not fwd:
                raise AssertionError("degeneration not reflexive on an orbit")
            if i != j and fwd and bwd:
                raise AssertionError("two distinct orbits degenerate onto each other")
            if not fwd and not bwd:
                raise AssertionError("two orbits are incomparable; no total order")
    # membership in an orbit never depends on the chosen representative
    for cls, r in zip(partition, reps):
        if not (reach[[g.index(c) for c in cls]] == reach[r]).all():
            raise AssertionError("image set varies inside an orbit")
