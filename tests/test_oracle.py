"""Brute-force oracles: presentation search, table checks, matrix/subspace scans.

These are the independent routes the closed forms are judged against, so the
tests here mostly pit the oracle against small hand-verifiable facts and
against internal cross-checks (jobs split, alternative scan modes), not
against the formulas themselves.
"""

from itertools import product

import numpy as np
import pytest

from extraspecial import counting, modp, oracle
from extraspecial.errors import CapExceeded, ContextError
from extraspecial.groups import ES1, ES2, group
from extraspecial.modp import Mat, rank
from extraspecial.morphisms import enumerate_endomorphisms


def test_presentation_shapes(es1_31, es2_31, es2_32):
    pres = oracle.presentation(es1_31)
    assert pres.gen_orders == (3, 3)
    pres2 = oracle.presentation(es2_31)
    assert pres2.gen_orders == (9, 3)
    pres22 = oracle.presentation(es2_32)
    assert pres22.gen_orders == (9, 3, 3, 3)
    # the designated generators of the group itself satisfy every relation
    for g, pr in ((es1_31, pres), (es2_31, pres2), (es2_32, pres22)):
        gens = tuple(x.coords for x in g.generators())
        assert oracle.satisfies_relations(g, pr, gens)


def test_satisfies_relations_rejects_non_homs(es2_31):
    pres = oracle.presentation(es2_31)
    # sending x1 to an order-3 element cannot respect x1^9 normal closure
    images = ((0, 1), (1, 0))
    assert not oracle.satisfies_relations(es2_31, pres, images)


def test_hom_search_counts(es1_31, es2_31):
    assert sum(1 for _ in oracle.enumerate_homs_by_generators(es1_31)) == 729
    assert sum(1 for _ in oracle.enumerate_homs_by_generators(es2_31)) == 135


def test_hom_search_cap(es2_32):
    with pytest.raises(CapExceeded):
        list(oracle.enumerate_homs_by_generators(es2_32))


def test_hom_table_matches_parametrized_apply(es2_31, endos_es2_31):
    for m in endos_es2_31[::19]:
        images = tuple(m.apply(x).coords for x in es2_31.generators())
        t = oracle.hom_table(es2_31, images)
        assert np.array_equal(t, m.table())


def test_hom_table_identity(es1_31):
    gens = tuple(x.coords for x in es1_31.generators())
    t = oracle.hom_table(es1_31, gens)
    assert np.array_equal(t, np.arange(es1_31.size))


def test_mult_table(es2_31):
    T = oracle.mult_table(es2_31)
    e = es2_31.index((0, 0))
    assert np.array_equal(T[e], np.arange(es2_31.size))
    assert np.array_equal(T[:, e], np.arange(es2_31.size))
    # each row and column is a permutation (cancellation law)
    for i in (1, 7, 20):
        assert len(set(T[i].tolist())) == es2_31.size
        assert len(set(T[:, i].tolist())) == es2_31.size
    i, j = es2_31.index((1, 0)), es2_31.index((8, 1))
    assert T[i, j] == es2_31.index((3, 1))


def test_is_hom_table(es1_31):
    gens = tuple(x.coords for x in es1_31.generators())
    t = oracle.hom_table(es1_31, gens)
    assert oracle.is_hom_table(es1_31, t)
    bad = t.copy()
    bad[[3, 4]] = bad[[4, 3]]
    assert not oracle.is_hom_table(es1_31, bad)


def test_hom_check_on_generators_agrees(es2_31, endos_es2_31):
    for m in endos_es2_31[::31]:
        assert oracle.hom_check_on_generators(es2_31, m.table())
    # swap two non-generator images: generator words notice through products
    t = endos_es2_31[1].table().copy()
    t[[5, 6]] = t[[6, 5]]
    assert oracle.hom_check_on_generators(es2_31, t) == oracle.is_hom_table(es2_31, t)


def test_scan_matrices_dim2():
    # NULL counts singular matrices, FIXED l=1 counts SL_2, SCALAR counts all
    assert oracle.scan_matrices(2, 3, oracle.NULL_FORM) == 33
    assert oracle.scan_matrices(2, 3, oracle.FIXED_FORM, l=1) == 24
    assert oracle.scan_matrices(2, 3, oracle.SCALAR_FORM) == 81
    assert oracle.scan_matrices(2, 5, oracle.NULL_FORM) == 145
    assert oracle.scan_matrices(2, 5, oracle.FIXED_FORM, l=1) == 120
    with pytest.raises(ContextError):
        oracle.scan_matrices(2, 3, oracle.FIXED_FORM)
    with pytest.raises(ContextError):
        oracle.scan_matrices(3, 3, oracle.NULL_FORM)


def test_scan_matrices_constrained_dim2():
    # es2 pools at n = 1: first column (s, *) only, second column (0, *)
    assert oracle.scan_matrices(2, 3, oracle.FIXED_FORM, l=1,
                                es2_constrained=True) == 3
    total_units = sum(oracle.scan_matrices(2, 3, oracle.FIXED_FORM, l=l,
                                           es2_constrained=True)
                      for l in (1, 2))
    assert total_units == counting.im_phi2_order(1, 3)
    assert oracle.scan_matrices(2, 3, oracle.NULL_FORM, image_in_v1=True) == 9


def test_scan_matrices_dim4_jobs_split():
    a = oracle.scan_matrices(4, 3, oracle.NULL_FORM)
    b = oracle.scan_matrices(4, 3, oracle.NULL_FORM, jobs=2)
    assert a == b == 252801
    assert oracle.scan_matrices(4, 3, oracle.FIXED_FORM, l=1) == 51840


def test_scan_matrices_cap():
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(4, 7, oracle.NULL_FORM)
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(2, 3, oracle.NULL_FORM, limit=10)


def test_scan_subspaces():
    # total subspace counts are Gaussian binomials
    assert oracle.scan_subspaces(4, 3, 0) == 1
    assert oracle.scan_subspaces(4, 3, 1) == 40
    assert oracle.scan_subspaces(4, 3, 2) == 130
    assert oracle.scan_subspaces(2, 3, 1, isotropic=True) == 4
    assert oracle.scan_subspaces(2, 3, 1, isotropic=True, inside_v1=True) == 1
    assert oracle.scan_subspaces(4, 3, 2, isotropic=True) == 40
    assert oracle.scan_subspaces(4, 3, 2, isotropic=True, inside_v1=True) == 4


def test_scan_surjections():
    assert oracle.scan_surjections(2, 3, 0) == 1
    assert oracle.scan_surjections(2, 3, 1) == 8
    assert oracle.scan_surjections(4, 3, 2) == (81 - 1) * (81 - 3)
    assert oracle.scan_surjections(2, 3, 3) == 0  # no surjection onto a bigger space


def _surjections_one_by_one(dim, p, k):
    """The per-matrix reference: one Mat and one rref per candidate."""
    if k == 0:
        return 1
    return sum(rank(Mat(p, [entries[i * dim:(i + 1) * dim] for i in range(k)])) == k
               for entries in product(range(p), repeat=k * dim))


@pytest.mark.parametrize("dim,p,k", [
    (dim, p, k) for dim in (2, 4) for p in (3, 5) for k in range(dim + 2)
    if p ** (k * dim) <= 10 ** 5])
def test_scan_surjections_matches_per_matrix_rank(dim, p, k):
    assert oracle.scan_surjections(dim, p, k) == _surjections_one_by_one(dim, p, k)


def test_scan_surjections_cap_and_independence(monkeypatch):
    assert oracle.scan_surjections(4, 5, 2, limit=5 ** 8) == 386_880

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the surjection scan reached a forbidden helper")

    # formula-free: neither the closed form nor the Gaussian binomial is used
    monkeypatch.setattr(counting, "gamma_k", forbidden)
    monkeypatch.setattr(modp, "p_binomial", forbidden)
    assert oracle.scan_surjections(4, 3, 2) == (81 - 1) * (81 - 3)
    # the cap raises before any candidate table is built
    monkeypatch.setattr(oracle, "_vectors", forbidden)
    with pytest.raises(CapExceeded):
        oracle.scan_surjections(4, 5, 2, limit=5 ** 8 - 1)


def test_sigma_scan_count(es1_31, es2_31):
    assert oracle.sigma_scan_count(ES1, 3, 1, invertible_only=True) == 48
    assert oracle.sigma_scan_count(ES1, 3, 1, invertible_only=False) == 81
    assert oracle.sigma_scan_count(ES2, 3, 1, invertible_only=True) == 6
    assert oracle.sigma_scan_count(ES2, 3, 1, invertible_only=False) == 15
    # multiplying by the translation/lift factor recovers the morphism counts
    assert 9 * 15 == len(list(enumerate_endomorphisms(es2_31)))
