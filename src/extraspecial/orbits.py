"""Automorphism orbits, endomorphism images, and the degeneration relation,
read off the group law: the power form omega (Group.power_form, x^p =
z^(omega . v) for x over v) and the commutator functional A(., v) =
(M - M^t) v (Group.commutator_functional).  H is the preimage of ker omega
and R = ker omega ∩ (ker omega)^⊥ under A, whose preimage is K = Z(H).

Where omega = 0 (es1, es1~) H = G and R = 0: the automorphism orbits are
{e}, Z(G)\\{e} and G\\Z(G), with endomorphism images {e}, Z(G) and G, and
"lies in the image of" is a total order on the three orbits.

Where omega != 0 (es2, es2~) H has index p and R is a line.  The orbits are
{e}, Z(G)\\{e}, G\\H, one orbit O_b of size p for each b != 0 (the elements
over the v in R with A(., v) = b omega: b = A(x_omega, v) for the generator
with omega . x_omega = 1), and (when n > 1) H\\K.  Elements of H\\Z(G) share
the endomorphism image H although they fall into p distinct orbits, which
kills any partial order on orbits: two different O_b orbits degenerate onto
each other without being automorphic.

ORBIT_TABLE writes this inventory once, per case: each orbit tag's size (as
text and at (p, n)) and image class.  The labels and sizes, the image
classes, the chain and the CLI's `orbits` command all read it.

orbits_bruteforce recomputes the partition by applying every automorphism
to every element, so the closed-form classifier can be checked against it
wholesale; it and the chain check read each family's image set of every
element, stacked over quotient matrices (morphisms.image_sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Callable, NamedTuple

from .config import charge
from .errors import ContextError, check
from .groups import Element, Group, GroupId, group
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
    b: int | None = None  # A(x_omega, v) for ES2_OB orbits

    def __str__(self):
        return self.tag if self.b is None else f"{self.tag}({self.b})"


def ob_label(b: int) -> OrbitLabel:
    return OrbitLabel(ES2_OB, b)


class OrbitRow(NamedTuple):
    tag: str
    formula: str  # the orbit size as text, as the `orbits` command prints it
    size: Callable[[int, int], int]  # the same at (p, n); 0 means no such orbit
    image: str  # the image class of the orbit's elements


_CENTRE_ROWS = (OrbitRow(IDENTITY, "1", lambda p, n: 1, TRIVIAL),
                OrbitRow(CENTRAL_NONID, "p-1", lambda p, n: p - 1, CENTER))
# keyed by any(omega); the ES2_OB row stands for the p - 1 orbits O_b, each of size p
ORBIT_TABLE = {
    False: _CENTRE_ROWS + (
        OrbitRow(ES1_NONCENTRAL, "p^(2n+1)-p", lambda p, n: p ** (2 * n + 1) - p, WHOLE_GROUP),),
    True: _CENTRE_ROWS + (
        OrbitRow(ES2_OB, "p", lambda p, n: p, SUBGROUP_H),
        OrbitRow(ES2_H_MINUS_K, "p^(2n)-p^2", lambda p, n: p ** (2 * n) - p * p, SUBGROUP_H),
        OrbitRow(ES2_ORDER_P2, "p^(2n+1)-p^(2n)", lambda p, n: p ** (2 * n + 1) - p ** (2 * n),
                 WHOLE_GROUP)),
}


def orbit_rows(g: Group | GroupId) -> tuple:
    """g's rows of ORBIT_TABLE, by whether its power form (e_1 or 0 at every n)
    is zero; a GroupId reads it off its kind's group at n = 1, not at g's size."""
    law = g if isinstance(g, Group) else group(g.kind, g.p, 1)
    return ORBIT_TABLE[any(law.power_form())]


def orbit_row(g: Group | GroupId, tag: str) -> OrbitRow:
    """The row of one orbit tag in g's table."""
    row = next((r for r in orbit_rows(g) if r.tag == tag), None)
    if row is None:
        raise ContextError(f"{tag} is no orbit tag of {g.kind}({g.p},{g.n})")
    return row


def classify(e: Element) -> OrbitLabel:
    """Closed-form automorphism-orbit label of an element, from omega and A."""
    g = e.group
    if e.is_identity():
        return OrbitLabel(IDENTITY)
    if e.is_central():
        return OrbitLabel(CENTRAL_NONID)
    omega, v = g.power_form(), e.quotient_coords()
    if sum(map(mul, omega, v)) % g.p:  # outside H
        return OrbitLabel(ES2_ORDER_P2)
    if not any(omega):
        return OrbitLabel(ES1_NONCENTRAL)
    a = g.commutator_functional(v)
    b = a[omega.index(1)]  # A(x_omega, v): omega = e_i for x_omega = x_i
    if a == tuple(b * w for w in omega):  # v in R
        return ob_label(b)  # b != 0: A is nondegenerate and e is not central
    return OrbitLabel(ES2_H_MINUS_K)


def orbit_labels(g: Group | GroupId) -> list[OrbitLabel]:
    """All orbit labels of g in table order, identity first, largest orbit last;
    g's power form, p and n are all that is read."""
    return [OrbitLabel(r.tag, b) for r in orbit_rows(g) if r.size(g.p, g.n)
            for b in (range(1, g.p) if r.tag == ES2_OB else (None,))]


def label_count(g: Group | GroupId) -> int:
    """len(orbit_labels(g)), without listing them."""
    return sum(g.p - 1 if r.tag == ES2_OB else 1 for r in orbit_rows(g) if r.size(g.p, g.n))


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
    if image_class == SUBGROUP_H:  # omega . v = 0
        return not sum(map(mul, g.power_form(), g.quotient_coords(coords))) % g.p
    if image_class == WHOLE_GROUP:
        return True
    raise ContextError(f"unknown image class {image_class}")


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
        check(support == set(members), "image rows do not form a partition")
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
    return _partition(g, _reach_tables(g, True, None)[0])


@dataclass
class DegenerationReport:
    group: str
    verdict: str
    order_chains: tuple  # strict (lower, higher) label-string pairs, omega = 0 only
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
    """y_1 and y_1^2, in O_1 and O_2, and endomorphisms between them: (sigma, 0, 0)
    with sigma c Id on the y_j and 0 on the x_i sends y_1 to y_1^c (M vanishes on
    the y block), so c = 2 and c = inv(2) swap the representatives."""
    p, n = g.p, g.n
    zero = Mat.zeros(p, n, n)
    g1 = g.generators()[n]
    fwd, back = (build_endo(g, zero, Mat.identity(p, n).scale(c), zero, zero,
                            (0,) * (n - 1), (0,) * n) for c in (2, inv_mod(2, p)))
    return g1, g1 * g1, fwd, back


def partial_order_report(g: Group, verify: bool = True,
                         limit: int | None = None) -> DegenerationReport:
    """Does degeneration order the orbits?  Yes where the power form is zero
    (es1, es1~), no where it is not (es2, es2~).

    With verify=True the verdict is checked at desk scale: for a chain the
    brute orbit partition and brute image sets must realize it; otherwise the
    witness pair must be exchanged by the exhibited endomorphisms yet lie in
    different orbits of the full automorphism group.  Both checks apply every
    morphism: the chain through morphisms.image_sets, the witness through
    family_images on the first witness's row, a 1 x p^2n block per sigma.
    """
    if not any(g.power_form()):
        chains = tuple(combinations((r.tag for r in orbit_rows(g)), 2))  # the rows' order
        if verify:  # a failed check raises
            _verify_es1_total_order(g, limit)
        return DegenerationReport(str(g.gid), PARTIAL_ORDER, chains, None, None, verify)
    g1, g2, fwd, back = _es2_witness(g)
    if verify:
        import numpy as np

        check(fwd.apply(g1) == g2 and back.apply(g2) == g1,
              "witness endomorphisms do not exchange the witness pair")
        row = np.array([g1.coords], dtype=np.int64)
        target = g.index(g2.coords)
        for _, block in family_images(g, row, True, limit):
            check(not (block == target).any(), "witness pair unexpectedly automorphic")
    return DegenerationReport(str(g.gid), NO_PARTIAL_ORDER, (), (g1, g2), (fwd, back), verify)


def _verify_es1_total_order(g: Group, limit: int | None):
    """Exhaustively confirm the degeneration chain on a desk-scale group.

    One walk over the endomorphisms fills both the degeneration table and,
    from its invertible blocks, the automorphism table of the orbits.
    """
    reach, auto = _reach_tables(g, False, limit)
    # brute degeneration must agree with the closed form everywhere: row i is
    # the membership mask of element i's image class
    coords = list(g.elements())
    classes = [endo_image_class(Element(g, c)) for c in coords]
    masks = {cls: [image_contains(g, cls, c) for c in coords] for cls in set(classes)}
    check(reach.tolist() == [masks[cls] for cls in classes],
          "brute degeneration disagrees with image classes")
    # on orbits: reflexive, antisymmetric, total
    partition = _partition(g, auto)
    reps = [g.index(min(c)) for c in partition]
    for i, r in enumerate(reps):
        for j, s in enumerate(reps):
            fwd = reach[r, s]
            bwd = reach[s, r]
            check(i != j or fwd, "degeneration not reflexive on an orbit")
            check(i == j or not (fwd and bwd), "two distinct orbits degenerate onto each other")
            check(fwd or bwd, "two orbits are incomparable; no total order")
    # membership in an orbit never depends on the chosen representative
    for cls, r in zip(partition, reps):
        check((reach[[g.index(c) for c in cls]] == reach[r]).all(),
              "image set varies inside an orbit")
