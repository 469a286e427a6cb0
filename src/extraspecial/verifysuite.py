"""Invariant battery behind `extraspecial verify`.

quick runs the desk-scale checks at (p, n) = (3, 1); full adds (5, 1) and
(3, 2).  Every check recomputes one side of a claim by a route independent
of the closed forms under test and raises AssertionError on mismatch,
through errors.check, so the battery still checks under python -O.
"""

from __future__ import annotations

from itertools import islice

from . import counting, oracle, orbits
from .errors import check
from .groups import (ES1, ES2, ES1_TILDE, ES2_TILDE, Element, delta_iso,
                     group, lambda_iso)
from .morphisms import (enumerate_automorphisms, enumerate_endomorphisms,
                        is_im_phi2_matrix, scalar_action_check)
from .symplectic import enumerate_isotropic


def check_group_laws(kind: str, p: int, n: int):
    g = group(kind, p, n)
    elems = list(g.elements())
    check(len(elems) == p ** (2 * n + 1), f"{g.gid} has {len(elems)} elements")
    e = (0,) * len(g.ranges)
    for a in elems:
        check(g.mul(a, e) == a and g.mul(e, a) == a, f"identity fails in {g.gid}")
        check(g.mul(a, g.inv(a)) == e, f"inverse fails in {g.gid}")
    for a in elems:
        for b in elems:
            for c in elems:
                if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                    raise AssertionError(f"associativity fails in {g.gid}")
    center = {a for a in elems if all(g.commutator(a, b) == e for b in elems)}
    check(center == set(g.center_coords()), f"center mismatch in {g.gid}")


def _check_iso(gt, g, phi_coords):
    elems = list(gt.elements())
    phi = {a: phi_coords(a) for a in elems}
    check(len(set(phi.values())) == g.size, "comparison map is not bijective")
    for a in elems:
        fa = phi[a]
        for b in elems:
            if phi[gt.mul(a, b)] != g.mul(fa, phi[b]):
                raise AssertionError("comparison map is not a homomorphism")


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
    got = sum(1 for _ in enumerate_endomorphisms(g))
    want = counting.end_order(kind, p, n)
    check(got == want, f"|End {g.gid}| enumerated {got} != formula {want}")


def check_aut_count(kind: str, p: int, n: int):
    g = group(kind, p, n)
    got = 0
    for m in enumerate_automorphisms(g):
        got += 1
        check(m.is_automorphism, "an enumerated automorphism is not bijective")
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


def check_counting_scans(p: int, n: int, jobs: int = 1):
    for k in range(n + 1):
        a = counting.alpha_k(p, n, k)
        check(a == oracle.scan_subspaces(2 * n, p, k, isotropic=True),
              f"alpha_{k}({p},{n}) scan mismatch")
        check(a == len(enumerate_isotropic(n, p, k)),
              f"alpha_{k}({p},{n}) subspace search mismatch")
        b = counting.beta_k(p, n, k)
        check(b == oracle.scan_subspaces(2 * n, p, k, isotropic=True,
                                         inside_v1=True),
              f"beta_{k}({p},{n}) scan mismatch")
        check(b == len(enumerate_isotropic(n, p, k, inside_v1=True)),
              f"beta_{k}({p},{n}) subspace search mismatch")
        check(counting.gamma_k(p, n, k) == oracle.scan_surjections(2 * n, p, k),
              f"gamma_{k}({p},{n}) scan mismatch")
    check(counting.count_X(p, n) == oracle.scan_matrices(
        2 * n, p, oracle.NULL_FORM, jobs=jobs), f"X({p},{n}) scan mismatch")
    check(counting.count_Y(p, n) == oracle.scan_matrices(
        2 * n, p, oracle.NULL_FORM, image_in_v1=True, jobs=jobs),
        f"Y({p},{n}) scan mismatch")
    check(counting.sp_order(n, p) == oracle.scan_matrices(
        2 * n, p, oracle.FIXED_FORM, l=1, jobs=jobs), "sp_order scan mismatch")
    check(counting.im_phi2_order(n, p) == counting.oracle_value(
        "im_phi2_order", p, n, jobs=jobs), "im_phi2_order scan mismatch")
    for kind in (ES1, ES2):
        check(counting.aut_order(kind, p, n) == counting.oracle_value(
            "aut_order", p, n, group_kind=kind, jobs=jobs),
            f"aut {kind} scan mismatch")
        check(counting.end_order(kind, p, n) == counting.oracle_value(
            "end_order", p, n, group_kind=kind, jobs=jobs),
            f"end {kind} scan mismatch")


def check_polynomials(n: int, primes=(3, 5, 7)):
    for p in primes:
        for k in range(n + 1):
            check(counting.alpha_poly(n, k).eval(p) == counting.alpha_k(p, n, k),
                  f"alpha_{k} polynomial at ({p},{n})")
            check(counting.beta_poly(n, k).eval(p) == counting.beta_k(p, n, k),
                  f"beta_{k} polynomial at ({p},{n})")
            check(counting.gamma_poly(n, k).eval(p) == counting.gamma_k(p, n, k),
                  f"gamma_{k} polynomial at ({p},{n})")
        check(counting.count_X_poly(n).eval(p) == counting.count_X(p, n),
              f"X polynomial at ({p},{n})")
        check(counting.count_Y_poly(n).eval(p) == counting.count_Y(p, n),
              f"Y polynomial at ({p},{n})")
        for kind in (ES1, ES2):
            check(counting.end_order_poly(kind, n).eval(p) ==
                  counting.end_order(kind, p, n),
                  f"|End {kind}| polynomial at ({p},{n})")


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
    induced = {m.sigma() for m in enumerate_automorphisms(g)}
    check(induced == predicate, "induced quotient matrices != predicate set")
    check(len(induced) == counting.im_phi2_order(n, p),
          f"{len(induced)} induced quotient matrices != im_phi2_order")


def check_scalar_action(kind: str, p: int, n: int, count: int = 25):
    g = group(kind, p, n)
    for m in islice(enumerate_endomorphisms(g), count):
        scalar_action_check(m, exhaustive=True)


def check_hom_oracle(kind: str, p: int, n: int):
    g = group(kind, p, n)
    oracle_images = {tuple(im) for im in oracle.enumerate_homs_by_generators(g)}
    gens = [x.coords for x in g.generators()]
    param_images = set()
    for m in enumerate_endomorphisms(g):
        param_images.add(tuple(m.apply_coords(c) for c in gens))
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
    ]
    return base + extra
