"""Invariant battery behind `extraspecial verify`.

quick runs the desk-scale checks at (p, n) = (3, 1); full adds (5, 1) and
(3, 2).  Every check recomputes one side of a claim by a route independent
of the closed forms under test and raises AssertionError on mismatch,
through errors.check, so the battery still checks under python -O.
"""

from __future__ import annotations

import numpy as np

from . import counting, oracle, orbits
from .errors import check
from .groups import (ES1, ES2, ES1_TILDE, ES2_TILDE, Element, delta_iso,
                     group, lambda_iso, row_blocks)
from .morphisms import (enumerate_morphisms, family_images, is_im_phi2_matrix,
                        scalar_action_check)


def check_group_laws(kind: str, p: int, n: int):
    g = group(kind, p, n)
    elems = list(g.elements())
    N = len(elems)
    check(N == p ** (2 * n + 1), f"{g.gid} has {N} elements")
    T = oracle.mult_table(g)
    # the cocycle data's two readers agree: mul_index and the tuple mul (CLI, hom-search)
    tuple_law = np.array([[g.index(g.mul(a, b)) for b in elems] for a in elems])
    check(np.array_equal(T, tuple_law), f"batched and tuple products differ in {g.gid}")
    ids = np.arange(N)  # the identity is element 0
    check(np.array_equal(T[0], ids) and np.array_equal(T[:, 0], ids),
          f"identity fails in {g.gid}")
    inverses = [g.index(g.inv(a)) for a in elems]
    check(not T[ids, inverses].any(), f"inverse fails in {g.gid}")
    for rows in row_blocks(N):  # (ab)c == a(bc) for a in the block, all b, c
        check(np.array_equal(T[T[rows]], T[rows][:, T]), f"associativity fails in {g.gid}")
    center = set(np.flatnonzero((T == T.T).all(axis=1)).tolist())
    check(center == {g.index(c) for c in g.center_coords()}, f"center mismatch in {g.gid}")


def _check_iso(gt, g, phi_coords):
    """phi(ab) == phi(a) phi(b) on all pairs of gt, one row block at a time."""
    Et, E = gt.coords_matrix(), g.coords_matrix()
    phi = np.array([g.index(phi_coords(a)) for a in gt.elements()])
    check(len(set(phi.tolist())) == g.size, "comparison map is not bijective")
    images = E[phi]
    for rows in row_blocks(gt.size):
        check(np.array_equal(phi[gt.mul_index(Et[rows], Et)],
                             g.mul_index(images[rows], images)),
              "comparison map is not a homomorphism")


def check_lambda_iso(p: int, n: int):
    gt = group(ES1_TILDE, p, n)
    g = group(ES1, p, n)
    _check_iso(gt, g, lambda c: lambda_iso(Element(gt, c)).coords)


def check_delta_iso(p: int, n: int):
    gt = group(ES2_TILDE, p, n)
    g = group(ES2, p, n)
    _check_iso(gt, g, lambda c: delta_iso(Element(gt, c)).coords)


def check_endo_count(kind: str, p: int, n: int):
    g = group(kind, p, n)
    got = sum(1 for _ in enumerate_morphisms(g))
    want = counting.end_order(kind, p, n)
    check(got == want, f"|End {g.gid}| enumerated {got} != formula {want}")


def check_aut_count(kind: str, p: int, n: int):
    """Every enumerated automorphism permutes the elements, and the formula
    counts them."""
    g = group(kind, p, n)
    ids = np.arange(g.size)[:, None]
    got = 0
    for _, block in family_images(g, g.coords_matrix(), True):
        check((np.sort(block, axis=0) == ids).all(),
              "an enumerated automorphism is not bijective")
        got += block.shape[1]
    want = counting.aut_order(kind, p, n)
    check(got == want, f"|Aut {g.gid}| enumerated {got} != formula {want}")


def check_orbit_partition(kind: str, p: int, n: int, expected_sizes: tuple):
    g = group(kind, p, n)
    partition = orbits.orbits_bruteforce(g)
    sizes = tuple(sorted(len(c) for c in partition))
    check(sizes == tuple(sorted(expected_sizes)),
          f"orbit sizes {sizes} != expected {tuple(sorted(expected_sizes))}")
    check(sum(sizes) == g.size, f"orbits cover {sum(sizes)} of {g.size} elements")
    labels = []
    for cls in partition:
        cls_labels = {str(orbits.classify(Element(g, c))) for c in cls}
        check(len(cls_labels) == 1, "classifier is not constant on an orbit")
        label = next(iter(cls_labels))
        labels.append(label)
        rep = next(iter(cls))
        lab = orbits.classify(Element(g, rep))
        check(orbits.orbit_cardinality(lab, g) == len(cls),
              f"cardinality formula wrong for {label}")
    check(len(set(labels)) == len(partition), "two orbits share a label")


def check_partial_order(kind: str, p: int, n: int, expected_verdict: str):
    g = group(kind, p, n)
    rep = orbits.partial_order_report(g, verify=True)
    check(rep.verified, f"degeneration report for {g.gid} is not verified")
    check(rep.verdict == expected_verdict,
          f"degeneration verdict {rep.verdict} != {expected_verdict}")


def check_counting_scans(p: int, n: int):
    """Every quantity's closed form against its oracle scan."""
    for q in counting.QUANTITIES:
        for k, kind in counting.row_args(q, n):
            check(counting.compute_report(q, p, n, k, kind, oracle=True).match,
                  f"{q}({p},{n}) k={k} group={kind} scan mismatch")


def check_polynomials(n: int, primes=(3, 5, 7)):
    """Every formula run in Z[x] and evaluated at each prime against the
    same formula run in Z, and the alpha and beta polynomials coefficient by
    coefficient against their echelon cells."""
    for p in primes:
        for q, route in counting.QUANTITIES.items():
            for k, kind in counting.row_args(q, n):
                a = counting.validate_request(q, p, n, k, kind)
                check(route.poly(n, a).eval(p) == route.formula(p, n, a),
                      f"{q} polynomial at ({p},{n}) k={k} group={kind}")
    for q, inside_v1 in (("alpha_k", False), ("beta_k", True)):
        for k in range(n + 1):
            check(counting.QUANTITIES[q].poly(n, k).coeffs
                  == oracle.cell_polynomial(n, k, inside_v1, primes),
                  f"{q} polynomial at n={n} k={k} differs from its echelon cells")


def check_im_phi2(p: int, n: int):
    from itertools import product as iproduct
    from .modp import Mat
    dim = 2 * n
    predicate = set()
    for entries in iproduct(range(p), repeat=dim * dim):
        m = Mat(p, tuple(tuple(entries[i * dim:(i + 1) * dim]) for i in range(dim)))
        if is_im_phi2_matrix(m):
            predicate.add(m)
    g = group(ES2, p, n)
    induced = {m.sigma for m in enumerate_morphisms(g, True)}
    check(induced == predicate, "induced quotient matrices != predicate set")
    check(len(induced) == counting.im_phi2_order(n, p),
          f"{len(induced)} induced quotient matrices != im_phi2_order")


def check_scalar_action(kind: str, p: int, n: int):
    """f(m(a), m(b)) = s f(a, b) for every endomorphism m, whose scalars cover F_p."""
    g = group(kind, p, n)
    scalars = set()
    for m in enumerate_morphisms(g):
        check(scalar_action_check(m), f"scalar law fails for {m}")
        scalars.add(m.s)
    check(scalars == set(range(p)), f"checked scalars {sorted(scalars)} miss part of F_{p}")


def check_hom_oracle(kind: str, p: int, n: int):
    g = group(kind, p, n)
    oracle_images = {tuple(g.index(c) for c in im)
                     for im in oracle.enumerate_homs_by_generators(g)}
    gens = np.array([x.coords for x in g.generators()], dtype=np.int64)
    param_images = {tuple(col) for _, block in family_images(g, gens)
                    for col in block.T.tolist()}
    check(oracle_images == param_images,
          "generator-image search and parametrization disagree")


def checks(suite: str):
    base = [
        ("group-laws-es1(3,1)", lambda: check_group_laws(ES1, 3, 1)),
        ("group-laws-es2(3,1)", lambda: check_group_laws(ES2, 3, 1)),
        ("group-laws-es1~(3,1)", lambda: check_group_laws(ES1_TILDE, 3, 1)),
        ("group-laws-es2~(3,1)", lambda: check_group_laws(ES2_TILDE, 3, 1)),
        ("lambda-iso-(3,1)", lambda: check_lambda_iso(3, 1)),
        ("delta-iso-(3,1)", lambda: check_delta_iso(3, 1)),
        ("hom-search-es1(3,1)", lambda: check_hom_oracle(ES1, 3, 1)),
        ("hom-search-es2(3,1)", lambda: check_hom_oracle(ES2, 3, 1)),
        ("endo-count-es1(3,1)", lambda: check_endo_count(ES1, 3, 1)),
        ("endo-count-es2(3,1)", lambda: check_endo_count(ES2, 3, 1)),
        ("aut-count-es1(3,1)", lambda: check_aut_count(ES1, 3, 1)),
        ("aut-count-es2(3,1)", lambda: check_aut_count(ES2, 3, 1)),
        ("orbits-es1(3,1)", lambda: check_orbit_partition(ES1, 3, 1, (1, 2, 24))),
        ("orbits-es2(3,1)", lambda: check_orbit_partition(ES2, 3, 1, (1, 2, 3, 3, 18))),
        ("degeneration-order-es1(3,1)",
         lambda: check_partial_order(ES1, 3, 1, orbits.PARTIAL_ORDER)),
        ("degeneration-order-es2(3,1)",
         lambda: check_partial_order(ES2, 3, 1, orbits.NO_PARTIAL_ORDER)),
        ("counting-scans-(3,1)", lambda: check_counting_scans(3, 1)),
        ("counting-polynomials-n1", lambda: check_polynomials(1)),
        ("im-phi2-(3,1)", lambda: check_im_phi2(3, 1)),
        ("scalar-action-es1(3,1)", lambda: check_scalar_action(ES1, 3, 1)),
        ("scalar-action-es2(3,1)", lambda: check_scalar_action(ES2, 3, 1)),
    ]
    if suite == "quick":
        return base
    extra = [
        ("lambda-iso-(5,1)", lambda: check_lambda_iso(5, 1)),
        ("delta-iso-(5,1)", lambda: check_delta_iso(5, 1)),
        ("lambda-iso-(3,2)", lambda: check_lambda_iso(3, 2)),
        ("delta-iso-(3,2)", lambda: check_delta_iso(3, 2)),
        ("hom-search-es1(5,1)", lambda: check_hom_oracle(ES1, 5, 1)),
        ("hom-search-es2(5,1)", lambda: check_hom_oracle(ES2, 5, 1)),
        ("endo-count-es1(5,1)", lambda: check_endo_count(ES1, 5, 1)),
        ("endo-count-es2(5,1)", lambda: check_endo_count(ES2, 5, 1)),
        ("aut-count-es2(3,2)", lambda: check_aut_count(ES2, 3, 2)),
        ("orbits-es2(3,2)",
         lambda: check_orbit_partition(ES2, 3, 2, (1, 2, 3, 3, 72, 162))),
        ("degeneration-order-es2(3,2)",
         lambda: check_partial_order(ES2, 3, 2, orbits.NO_PARTIAL_ORDER)),
        ("counting-scans-(3,2)", lambda: check_counting_scans(3, 2)),
        ("counting-scans-(5,1)", lambda: check_counting_scans(5, 1)),
        ("counting-polynomials-n2", lambda: check_polynomials(2)),
        # p = 7 is past SUBSPACE_CAP at n = 3
        ("counting-polynomials-n3", lambda: check_polynomials(3, primes=(3, 5))),
    ]
    return base + extra
