"""Acceptance gate: the nine primary guarantees, each timed against its budget.

Every criterion pits a closed-form path against an independent brute-force
path and prints a single verdict line (visible with -s, or in the captured
output on failure).  Budgets are wall-clock seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from extraspecial import counting, oracle, orbits, verifysuite
from extraspecial.groups import ES1, ES2, group
from extraspecial.modp import is_odd_prime
from extraspecial.morphisms import (enumerate_morphisms, family_images,
                                    is_im_phi2_matrix, scalar_action_check)

from conftest import sigmas


@contextmanager
def criterion(num, budget, desc):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL ({desc})")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        print(f"criterion {num}: FAIL ({desc}; {dt:.1f}s over the {budget}s budget)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {dt:.1f}s")
    print(f"criterion {num}: PASS ({desc}; {dt:.2f}s / {budget}s)")


def both_paths(g):
    """Generator-image index tuples: one per parametrized endomorphism, taken
    family by family on the generator rows, and the set the generator-image
    search finds."""
    gens = np.array([x.coords for x in g.generators()], dtype=np.int64)
    param = [tuple(col) for _, block in family_images(g, gens) for col in block.T.tolist()]
    brute = {tuple(g.index(c) for c in im) for im in oracle.enumerate_homs_by_generators(g)}
    return param, brute


def test_c1_endomorphism_count_es1():
    with criterion(1, 5, "es1(3,1) endomorphisms: 729 by both routes"):
        g = group(ES1, 3, 1)
        param, brute = both_paths(g)
        assert len(param) == len(set(param)) == 729 == 3 ** 6
        assert set(param) == brute


def test_c2_endomorphism_count_es2():
    with criterion(2, 5, "es2(3,1) endomorphisms: 135 by both routes"):
        g = group(ES2, 3, 1)
        param, brute = both_paths(g)
        assert len(param) == len(set(param)) == 135 == 2 * 3 ** 4 - 3 ** 3
        assert set(param) == brute


def test_c3_automorphism_counts_and_bijectivity():
    with criterion(3, 10, "automorphism counts 432 / 54, all bijective"):
        expected = {(ES1, 432), (ES2, 54)}
        for kind, want in expected:
            g = group(kind, 3, 1)
            autos = list(enumerate_morphisms(g, True))
            assert len(autos) == want
            assert len({m.param_key() for m in autos}) == want
            full = np.arange(g.size)
            for m in autos:
                assert np.array_equal(np.sort(m.table()), full)  # exhaustive bijectivity
            # automorphisms are exactly the invertible endomorphisms
            endo_autos = [m for m in enumerate_morphisms(g) if m.is_automorphism]
            assert {m.param_key() for m in endo_autos} == {m.param_key() for m in autos}


def test_c4_orbit_partitions():
    cases = (
        (ES1, 3, 1, [1, 2, 24]),
        (ES2, 3, 1, [1, 2, 3, 3, 18]),
        (ES2, 3, 2, [1, 2, 3, 3, 72, 162]),
    )
    with criterion(4, 60, "brute orbit partitions match the classifier"):
        for kind, p, n, sizes in cases:
            g = group(kind, p, n)
            partition = orbits.orbits_bruteforce(g)
            assert sorted(len(c) for c in partition) == sorted(sizes)
            assert sum(len(c) for c in partition) == p ** (2 * n + 1) == g.size
            seen_labels = set()
            for cls in partition:
                labels = {orbits.classify(g.element(c)) for c in cls}
                assert len(labels) == 1  # classifier constant on each brute orbit
                label = labels.pop()
                assert label not in seen_labels  # and injective across orbits
                seen_labels.add(label)
                assert orbits.orbit_cardinality(label, g) == len(cls)


def test_c5_counting_formulas_vs_scans():
    with criterion(5, 600, "alpha/beta/gamma/X/Y formulas match exhaustive scans"):
        for p, n in ((3, 1), (3, 2)):
            dim = 2 * n
            assert counting.count_X(p, n) == oracle.scan_matrices(dim, p, 0)
            assert counting.count_Y(p, n) == oracle.scan_matrices(dim, p, 0, es2_constrained=True)
        assert counting.count_X(3, 1) == 33
        assert counting.count_Y(3, 1) == 9
        assert counting.count_X(3, 2) == 252801  # the 3^16 scan
        assert counting.count_Y(3, 2) == 26001
        for p, n in ((3, 1), (3, 2), (5, 1)):
            dim = 2 * n
            for k in range(n + 1):
                a = counting.alpha_k(p, n, k)
                b = counting.beta_k(p, n, k)
                assert a == oracle.scan_subspaces(dim, p, k)
                assert b == oracle.scan_subspaces(dim, p, k, inside_v1=True)
                assert counting.gamma_k(p, n, k) == oracle.scan_surjections(dim, p, k)
        for n in (1, 2):  # the polynomials, coefficient by coefficient, from the echelon cells
            for k in range(n + 1):
                alpha, beta = (counting.QUANTITIES[q].poly(n, k) for q in ("alpha_k", "beta_k"))
                assert oracle.cell_polynomial(n, k, False) == alpha.coeffs
                assert oracle.cell_polynomial(n, k, True) == beta.coeffs


def test_c6_decomposition_identity_grid():
    with criterion(6, 1, "end = aut + p^2n * X/Y over p <= 97, n <= 6"):
        primes = [q for q in range(3, 98) if is_odd_prime(q)]
        assert len(primes) == 24
        for p in primes:
            for n in range(1, 7):
                lead = p ** (2 * n)
                assert counting.end_order(ES1, p, n) == (
                    counting.aut_order(ES1, p, n) + lead * counting.count_X(p, n))
                assert counting.end_order(ES2, p, n) == (
                    counting.aut_order(ES2, p, n) + lead * counting.count_Y(p, n))
        # spot anchors on the biggest corner, the same formulas run in Z[x]
        for kind in (ES1, ES2):
            poly = counting.QUANTITIES["end_order"].poly(6, kind)
            assert counting.end_order(kind, 97, 6) == poly.eval(97)


def test_c7_degeneration_reports():
    with criterion(7, 5, "es1 total chain; es2 witness kills the partial order"):
        rep1 = orbits.partial_order_report(group(ES1, 3, 1))
        assert rep1.verdict == orbits.PARTIAL_ORDER and rep1.verified
        chain_pairs = set(rep1.order_chains)
        labels = [orbits.IDENTITY, orbits.CENTRAL_NONID, orbits.ES1_NONCENTRAL]
        for i, lo in enumerate(labels):
            for hi in labels[i + 1:]:
                assert (lo, hi) in chain_pairs  # the order is total

        g = group(ES2, 3, 1)
        rep2 = orbits.partial_order_report(g)
        assert rep2.verdict == orbits.NO_PARTIAL_ORDER and rep2.verified
        g1, g2 = rep2.witness
        fwd, back = rep2.witness_endos
        assert orbits.classify(g1) != orbits.classify(g2)
        assert fwd.apply(g1) == g2 and back.apply(g2) == g1
        blocks = list(family_images(g, np.array([g1.coords]), invertible_only=True))
        assert sum(b.shape[1] for _, b in blocks) == 54
        target = g.index(g2.coords)
        assert not any((b == target).any() for _, b in blocks)  # exhaustive non-automorphy


def test_c8_scalar_law_isos_and_sigma_consequences():
    with criterion(8, 60, "scalar law, lambda/delta isos, es2 block consequences"):
        for kind in (ES1, ES2):
            g = group(kind, 3, 1)
            for m in enumerate_morphisms(g):
                assert scalar_action_check(m)

        # bijective and a homomorphism on every pair of elements
        for p, n in ((3, 1), (5, 1), (3, 2)):
            verifysuite.check_lambda_iso(p, n)
            verifysuite.check_delta_iso(p, n)

        # the consequences are on sigma alone, so check them once per sigma;
        # each sigma carries p^2n automorphisms
        for p, n in ((3, 1), (3, 2)):
            g = group(ES2, p, n)
            count = 0
            for sigma, _s in sigmas(g, invertible_only=True):
                count += 1
                assert sigma.entry(n, n) == 1          # b_11
                for j in range(1, n):
                    assert sigma.entry(n + j, n) == 0  # b_j1
                    assert sigma.entry(j, n) == 0      # c_j1
            assert count * p ** (2 * n) == counting.aut_order(ES2, p, n)


def test_c9_induced_quotient_matrices():
    with criterion(9, 5, "induced quotient matrices realize the 6-element image"):
        g = group(ES2, 3, 1)
        induced = {m.sigma for m in enumerate_morphisms(g, True)}
        assert len(induced) == 6
        assert all(is_im_phi2_matrix(mat) for mat in induced)
        # pointwise over the full 2x2 matrix space: predicate <=> induced
        from itertools import product
        from extraspecial.modp import Mat
        whole = {Mat(3, (r1, r2)) for r1 in product(range(3), repeat=2)
                 for r2 in product(range(3), repeat=2)}
        assert {mat for mat in whole if is_im_phi2_matrix(mat)} == induced
