"""Shared fixtures: the desk-scale groups and their enumerated morphism lists.

Enumerations at (p, n) = (3, 1) are cheap enough to share session-wide;
anything larger is built inside the test that needs it.  `sigmas` is the
tests' reference list of quotient matrices, read off the frontier,
`hom_table` their reference map of a morphism, read off generator images,
`subspaces_by_tuples` their reference subspace counts, deduplicated by
`rref`, and `spelled_classify` and `spelled_image_contains` the orbit
classifier and image test spelled on the es1 and es2 coordinate slots.
"""

from itertools import accumulate, product

import numpy as np
import pytest

from extraspecial import morphisms, orbits
from extraspecial.groups import ES1, ES2, group
from extraspecial.modp import Mat
from extraspecial.morphisms import enumerate_morphisms
from extraspecial.symplectic import pairing


def sigmas(g, invertible_only=False):
    """Yield (sigma, s) over every quotient matrix in the frontier's order:
    grouped by the scalar s, then lexicographic in the column tuple."""
    for V, cols, s in morphisms._frontier(g, invertible_only):
        for c in cols:
            yield Mat(g.p, V[c].T.tolist()), s


def hom_table(g, images):
    """Full map table (index -> index) from generator images, via normal forms.

    Every element is the word prod x_i^{u_i} prod y_j^{w_j} z^t with
    z = [x_1, y_1], a relation of all four presentations: (u; w) is its
    quotient vector and t its central exponent minus u^t M_uw w, the central
    exponent of the word before z^t (the cocycle M vanishes inside the u and
    w blocks).  So the image is the same word in the generator images.  This
    route never touches the parametrization.
    """
    p, n = g.p, g.n

    def powers(x):  # x^0 .. x^(p-1)
        return list(accumulate([x] * (p - 1), g.mul, initial=(0,) * len(g.ranges)))

    gen_powers = [powers(x) for x in images]
    zp = powers(g.commutator(images[0], images[n]))
    table = np.empty(g.size, dtype=np.int64)
    for idx, c in enumerate(g.elements()):
        # idx // z_index is the central exponent mod p (z^s adds s * z_index)
        v = g.quotient_coords(c)
        acc = zp[(idx // g.z_index - sum(m * v[i] * v[j] for i, j, m in g._terms
                                          if i < n <= j)) % p]
        for x, e in zip(gen_powers, v):
            acc = g.mul(acc, x[e])  # z^t is central, so it may come first
        table[idx] = g.index(acc)
    return table


def rref(rows, p):
    """Reduced row echelon rows over F_p, zero rows dropped: the canonical
    basis of the row space, so two lists span the same subspace iff their
    rref coincide."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        sel = next((r for r in rows if r[col]), None)
        if sel is None:
            continue
        rows.remove(sel)
        sel = [x * pow(sel[col], -1, p) % p for x in sel]
        rows, out = ([[(x - r[col] * y) % p for x, y in zip(r, sel)] for r in part]
                     for part in (rows, out))
        out.append(sel)
    return tuple(map(tuple, out))


def subspaces_by_tuples(dim, p, isotropic, inside_v1):
    """The tuple reference: counts per k of the subspaces spanned by k-tuples
    of vectors, each new vector orthogonal to the earlier ones if isotropic
    and with first coordinate 0 if inside_v1, deduplicated by rref rows."""
    vecs = [v for v in product(range(p), repeat=dim) if not (inside_v1 and v[0])]
    level, counts = {()}, [1]
    for k in range(1, dim + 1):
        level = {rref(span + (v,), p) for span in level for v in vecs
                 if not (isotropic and any(pairing(u, v, p) for u in span))}
        level = {span for span in level if len(span) == k}
        counts.append(len(level))
    return counts


def spelled_classify(e):
    """The orbit label of an es1 or es2 element, read off its coordinate slots:
    es2's first coordinate mod p (H) and its u and w blocks (K = Z(H))."""
    g = e.group
    if e.is_identity():
        return orbits.OrbitLabel(orbits.IDENTITY)
    if e.is_central():
        return orbits.OrbitLabel(orbits.CENTRAL_NONID)
    if g.kind == ES1:
        return orbits.OrbitLabel(orbits.ES1_NONCENTRAL)
    c, n = e.coords, g.n
    if c[0] % g.p:  # outside H: first coordinate not in pZ
        return orbits.OrbitLabel(orbits.ES2_ORDER_P2)
    if not any(c[1:n]) and not any(c[n + 1:]):  # in K = Z(H): u and w blocks zero
        return orbits.ob_label(c[n])  # w_1 != 0 here, else e would be central
    return orbits.OrbitLabel(orbits.ES2_H_MINUS_K)


def spelled_image_contains(g, image_class, coords):
    """Does the image class hold the element coords?  SUBGROUP_H, an image
    class of es2 only, is es2's first coordinate divisible by p."""
    if image_class == orbits.TRIVIAL:
        return all(c == 0 for c in coords)
    if image_class == orbits.CENTER:
        return g.is_central(coords)
    if image_class == orbits.SUBGROUP_H:
        return coords[0] % g.p == 0
    return image_class == orbits.WHOLE_GROUP


@pytest.fixture(scope="session")
def es1_31():
    return group(ES1, 3, 1)


@pytest.fixture(scope="session")
def es2_31():
    return group(ES2, 3, 1)


@pytest.fixture(scope="session")
def es1_51():
    return group(ES1, 5, 1)


@pytest.fixture(scope="session")
def es2_51():
    return group(ES2, 5, 1)


@pytest.fixture(scope="session")
def es1_32():
    return group(ES1, 3, 2)


@pytest.fixture(scope="session")
def es2_32():
    return group(ES2, 3, 2)


@pytest.fixture(scope="session")
def endos_es1_31(es1_31):
    return list(enumerate_morphisms(es1_31))


@pytest.fixture(scope="session")
def endos_es2_31(es2_31):
    return list(enumerate_morphisms(es2_31))


@pytest.fixture(scope="session")
def autos_es1_31(es1_31):
    return list(enumerate_morphisms(es1_31, True))


@pytest.fixture(scope="session")
def autos_es2_31(es2_31):
    return list(enumerate_morphisms(es2_31, True))
