"""Brute-force oracles: presentation search, table checks, matrix/subspace scans.

These are the independent routes the closed forms are judged against, so the
tests here mostly pit the oracle against small hand-verifiable facts and
against per-matrix references that live only here, not against the
formulas themselves.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from extraspecial import counting, modp, morphisms, oracle, polyz, verifysuite
from extraspecial.errors import CapExceeded, ContextError
from extraspecial.groups import ES1, ES2, Group, group
from extraspecial.morphisms import enumerate_morphisms

from conftest import hom_table, rref, subspaces_by_tuples


def rank(rows, p):
    return len(rref(rows, p))


def test_rref_and_rank():
    m = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
    # row3 = row1 - 2*row2 mod 3, so the rank drops to 2
    assert rank(m, 3) == 2
    assert rref(m, 3) == ((1, 0, 1), (0, 1, 1))  # zero rows dropped, pivots 1
    assert rref(((2, 2),), 3) == rref(((1, 1),), 3)  # one line, one canonical basis
    assert rank(((0, 0), (0, 0)), 3) == 0
    assert rank([[int(i == j) for j in range(4)] for i in range(4)], 7) == 4


def test_presentation_shapes(es1_31, es2_31, es2_32):
    # the designated generators of the group itself satisfy every relation
    for g in (es1_31, es2_31, es2_32):
        gens = tuple(x.coords for x in g.generators())
        assert oracle.satisfies_relations(g, oracle.presentation(g), gens)


def _comm(a, b):
    return ((a, 1), (b, 1), (a, -1), (b, -1))


def spelled_relations(g):
    """The paper's defining relations of es1 and es2, spelled out per kind:
    the reference that the data-built oracle.presentation is held to."""
    p, n = g.p, g.n
    gens = 2 * n
    rels = []
    if g.kind == ES1:
        z = _comm(0, n)
        rels += [(((i, p),), ()) for i in range(gens)]
    else:
        z = ((0, p),)
        rels.append((((0, p * p),), ()))
        rels += [(((i, p),), ()) for i in range(1, gens)]
    for i in range(n):
        for j in range(i + 1, n):
            rels.append((_comm(i, j), ()))
            rels.append((_comm(n + i, n + j), ()))
    rels += [(_comm(i, n + j), ()) for i in range(n) for j in range(n) if i != j]
    rels += [(_comm(i, n + i), z) for i in range(0 if g.kind == ES2 else 1, n)]
    z_inv = _comm(n, 0) if g.kind == ES1 else ((0, -p),)
    rels += [(z + ((i, 1),) + z_inv + ((i, -1),), ()) for i in range(gens)]
    if g.kind == ES1:
        rels.append((z * p, ()))
    return tuple(rels)


@pytest.mark.parametrize("kind", [ES1, ES2])
@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_spelled_relations_hold_on_the_generators(kind, p, n):
    g = group(kind, p, n)
    gens = tuple(x.coords for x in g.generators())
    pres = oracle.presentation(g)
    assert oracle.satisfies_relations(g, pres, gens)
    assert oracle.satisfies_relations(g, spelled_relations(g), gens)


@pytest.mark.parametrize("kind", [ES1, ES2])
def test_hom_search_finds_the_maps_the_spelled_relations_cut(kind):
    g = group(kind, 3, 1)
    spelled = spelled_relations(g)
    blind = [images for images in product(list(g.elements()), repeat=2)
             if oracle.satisfies_relations(g, spelled, images)]
    assert list(oracle.enumerate_homs_by_generators(g)) == blind


def test_satisfies_relations_rejects_non_homs(es2_31):
    pres = oracle.presentation(es2_31)
    # sending x1 to an order-3 element cannot respect x1^9 normal closure
    images = ((0, 1), (1, 0))
    assert not oracle.satisfies_relations(es2_31, pres, images)


def test_hom_search_counts(es1_31, es2_31, es1_51, es2_51):
    assert sum(1 for _ in oracle.enumerate_homs_by_generators(es1_31)) == 729
    assert sum(1 for _ in oracle.enumerate_homs_by_generators(es2_31)) == 135
    for g, want in ((es1_51, 15625), (es2_51, 1125)):
        assert sum(1 for _ in oracle.enumerate_homs_by_generators(g)) == want
        assert counting.end_order(g.kind, g.p, g.n) == want


@pytest.mark.parametrize("kind", [ES1, ES2])
def test_pruned_hom_search_matches_blind_reference(kind, monkeypatch):
    g = group(kind, 3, 1)
    pres = oracle.presentation(g)
    blind = [images for images in product(list(g.elements()), repeat=2)
             if oracle.satisfies_relations(g, pres, images)]
    # the search's product memo hands each ordered pair to Group.mul once
    pairs = Counter()
    real = Group.mul

    def spy(self, a, b):
        pairs[a, b] += 1
        return real(self, a, b)

    monkeypatch.setattr(Group, "mul", spy)
    found = list(oracle.enumerate_homs_by_generators(g))
    monkeypatch.undo()
    assert found == blind
    assert pairs and max(pairs.values()) == 1


@pytest.mark.parametrize("kind, homs", [(ES1, 729), (ES2, 135)])
def test_hom_search_reads_only_the_tuple_law(kind, homs, monkeypatch):
    # an independent route: no batched law, no multiplication table and no
    # endomorphism kernel; the test above pins one Group.mul call per pair
    def refuse(*args, **kwargs):
        raise AssertionError("the hom-search read a batched route")

    monkeypatch.setattr(oracle, "mult_table", refuse)
    monkeypatch.setattr(Group, "mul_index", refuse)
    monkeypatch.setattr(morphisms, "_images", refuse)
    assert len(list(oracle.enumerate_homs_by_generators(group(kind, 3, 1)))) == homs


@pytest.mark.parametrize("kind,n", [(ES1, 1), (ES2, 1), (ES1, 2), (ES2, 2)])
def test_hom_search_checks_each_relation_at_its_highest_generator(kind, n, monkeypatch):
    g = group(kind, 3, n)
    pres = oracle.presentation(g)
    checked = {}
    real = oracle.satisfies_relations

    def spy(g_, relations, images, power=None, mul=None):
        checked.setdefault(len(images) - 1, set()).add(relations)
        return real(g_, relations, images, power, mul)

    monkeypatch.setattr(oracle, "satisfies_relations", spy)
    # the trivial map comes first, after one check per level; n = 2 is past
    # HOM_CAP, so the cap is lifted for this one lazy step
    monkeypatch.setenv("EXTRASPECIAL_HOM_CAP", str(g.size ** (2 * n)))
    first = next(oracle.enumerate_homs_by_generators(g))
    assert first == (g.identity().coords,) * (2 * n)
    assert sorted(checked) == list(range(2 * n))
    seen = []
    for level, relation_sets in checked.items():
        (relations,) = relation_sets
        assert all(max(gi for word in rel for gi, _ in word) == level for rel in relations)
        seen += relations
    assert Counter(seen) == Counter(pres)


def test_hom_search_cap(es2_32):
    with pytest.raises(CapExceeded):
        list(oracle.enumerate_homs_by_generators(es2_32))


def test_hom_table_matches_parametrized_apply(es2_31, endos_es2_31, endos_es1_31, es2_32):
    # es2(3,1) has C = 0, so only es1(3,1) and es2(3,2) reach the w^t (C^t D) u
    # cross term; every 997th es2(3,2) automorphism is 106 maps
    cases = (endos_es2_31[::19] + endos_es1_31
             + list(enumerate_morphisms(es2_32, True))[::997])
    for m in cases:
        images = tuple(m.apply(x).coords for x in m.group.generators())
        t = hom_table(m.group, images)
        assert np.array_equal(t, m.table()), m.to_json_dict()
    assert sum(m.group is es2_32 for m in cases) == 106


def test_hom_table_identity(es1_31):
    gens = tuple(x.coords for x in es1_31.generators())
    t = hom_table(es1_31, gens)
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


def test_scan_matrices_dim2():
    # s = 0 counts singular matrices, s = 1 counts SL_2
    assert oracle.scan_matrices(2, 3, 0) == 33
    assert oracle.scan_matrices(2, 3, 1) == 24
    assert sum(oracle.scan_matrices(2, 3, s) for s in range(3)) == 81
    assert oracle.scan_matrices(2, 5, 0) == 145
    assert oracle.scan_matrices(2, 5, 1) == 120
    with pytest.raises(ContextError, match="matrix scans cover dim 2 and 4, got 3"):
        oracle.scan_matrices(3, 3, 0)


def test_scan_matrices_constrained_dim2():
    # es2 pools at n = 1: first column (s, *) only, second column (0, *)
    assert oracle.scan_matrices(2, 3, 1, es2_constrained=True) == 3
    total_units = sum(oracle.scan_matrices(2, 3, s, es2_constrained=True) for s in (1, 2))
    assert total_units == counting.im_phi2_order(1, 3)
    # at s = 0 the pin puts every column in V_1
    assert oracle.scan_matrices(2, 3, 0, es2_constrained=True) == 9


def _gram_one_by_one(dim, p, s, image_in_v1, es2_constrained):
    """The per-matrix reference: one Gram form N^t Delta N per candidate."""
    h = dim // 2
    eye = np.eye(h, dtype=np.int64)
    delta = np.block([[0 * eye, eye], [-eye, 0 * eye]])
    total = 0
    for entries in product(range(p), repeat=dim * dim):
        N = np.array(entries, dtype=np.int64).reshape(dim, dim)
        if not np.array_equal((N.T @ delta @ N) % p, (s * delta) % p):
            continue
        if image_in_v1 and N[0].any():
            continue
        if es2_constrained and tuple(N[0]) != (s,) + (0,) * (dim - 1):
            continue
        total += 1
    return total


@pytest.mark.parametrize("p", [3, 5])
def test_scan_matrices_dim2_matches_per_matrix_gram(p):
    pinned_zero = oracle.scan_matrices(2, p, 0, es2_constrained=True)
    for s in range(p):
        for es2_constrained in (False, True):
            assert (oracle.scan_matrices(2, p, s, es2_constrained=es2_constrained)
                    == _gram_one_by_one(2, p, s, False, es2_constrained)), (s, es2_constrained)
        # every column in V_1 (count_Y's class) is the pinned class at s = 0,
        # and empty at s != 0, where the matrices are invertible
        assert _gram_one_by_one(2, p, s, True, False) == (pinned_zero if s == 0 else 0), s


def test_scan_matrices_dim4():
    assert oracle.scan_matrices(4, 3, 0) == 252801
    assert oracle.scan_matrices(4, 3, 1) == 51840


def test_scan_matrices_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(4, 7, 0)
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", "10")
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(2, 3, 0)


def _spy_on_count(monkeypatch) -> list:
    """Empty the Gram-class memo and record the s of every _count run."""
    oracle._gram_count.cache_clear()
    runs = []
    real = oracle._count

    def spy(V, first, later, s, p):
        runs.append(s)
        return real(V, first, later, s, p)

    monkeypatch.setattr(oracle, "_count", spy)
    return runs


def test_scan_matrices_counts_each_gram_class_once(monkeypatch):
    runs = _spy_on_count(monkeypatch)
    scan = oracle.scan_matrices
    # s and s + p are one class
    assert scan(2, 3, 1) == scan(2, 3, 4) == 24
    assert scan(2, 3, 0) == scan(2, 3, 3) == 33
    assert runs == [1, 0]
    assert scan(2, 3, 2) == 24
    assert runs == [1, 0, 2]
    # the pinned classes never share a count with the free ones
    assert scan(2, 3, 0, es2_constrained=True) == 9
    assert scan(2, 3, 1, es2_constrained=True) == 3
    assert runs == [1, 0, 2, 0, 1]
    assert oracle._gram_count.cache_info().currsize == 5


def test_cached_gram_class_still_charges_the_cap(monkeypatch):
    assert oracle.scan_matrices(2, 3, 0) == 33
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", "80")
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(2, 3, 0)


def test_counting_scans_run_each_gram_class_once(monkeypatch):
    runs = _spy_on_count(monkeypatch)
    for p, n in ((3, 1), (3, 2), (5, 1)):
        verifysuite.check_counting_scans(p, n)
    # 55 Gram-class lookups over the three grids, 22 of them distinct:
    # count_Y shares the es2 class at s = 0
    assert len(runs) == 22


def test_scan_subspaces(monkeypatch):
    # the pairing is alternating, so every line is isotropic: 40 of F_3^4
    assert oracle.scan_subspaces(4, 3, 0) == 1
    assert oracle.scan_subspaces(4, 3, 1) == 40
    assert oracle.scan_subspaces(2, 3, 1) == 4
    assert oracle.scan_subspaces(2, 3, 1, inside_v1=True) == 1
    assert oracle.scan_subspaces(4, 3, 2) == 40
    assert oracle.scan_subspaces(4, 3, 2, inside_v1=True) == 4
    with pytest.raises(ContextError):
        oracle.scan_subspaces(3, 3, 1)
    # the cap is charged before the flag or any cell is built
    monkeypatch.setattr(oracle, "_flag_order", None)
    monkeypatch.setenv("EXTRASPECIAL_SUBSPACE_CAP", "129")
    with pytest.raises(CapExceeded):
        oracle.scan_subspaces(4, 3, 2)


@pytest.mark.parametrize("n,p", [(1, 3), (1, 5), (2, 3)])
def test_scan_subspaces_matches_tuple_reference(n, p):
    dim = 2 * n
    for inside_v1 in (False, True):
        want = subspaces_by_tuples(dim, p, True, inside_v1)
        got = [oracle.scan_subspaces(dim, p, k, inside_v1) for k in range(dim + 1)]
        assert got == want, inside_v1


def test_cell_walk_is_independent_of_the_block_size(monkeypatch):
    cases = [(4, 3, k, inside_v1) for k in range(5) for inside_v1 in (False, True)]
    cases += [(6, 3, 2, inside_v1) for inside_v1 in (False, True)]
    want = [list(oracle._cells(*c)) for c in cases]
    monkeypatch.setattr(oracle, "_CELL_BLOCK", 40)  # one to ten matrices per block
    assert [list(oracle._cells(*c)) for c in cases] == want


def test_cell_polynomial_certifies_the_twins_without_them(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the cell certificate reached a forbidden helper")

    for module in (counting, polyz):
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                monkeypatch.setattr(module, name, forbidden)
    # alpha_2(p, 2) = (p^2 + 1)(p + 1), beta_2(p, 2) = p + 1
    assert oracle.cell_polynomial(2, 2, False) == (1, 1, 1, 1)
    assert oracle.cell_polynomial(2, 2, True) == (1, 1)
    assert oracle.cell_polynomial(2, 1, True, primes=(3, 5, 7)) == (1, 1, 1)
    assert oracle.cell_polynomial(1, 2, False) == ()  # no isotropic plane in F_p^2
    with pytest.raises(ContextError):
        oracle.cell_polynomial(2, 1, False, primes=(3, 3))


def test_cell_polynomial_rejects_the_plain_coordinate_order(monkeypatch):
    # in the order (u_1, u_2, w_1, w_2) the cells are not affine spaces:
    # cell (0, 2) holds 6 isotropic planes at p = 3; the totals do not notice
    monkeypatch.setattr(oracle, "_flag_order", lambda n: list(range(2 * n)))
    assert oracle.scan_subspaces(4, 3, 2) == 40
    with pytest.raises(AssertionError, match=r"cell \(0, 2\) .* holds \[6, 20\]"):
        oracle.cell_polynomial(2, 2, False)


def test_scan_surjections():
    assert oracle.scan_surjections(2, 3, 0) == 1
    assert oracle.scan_surjections(2, 3, 1) == 8
    assert oracle.scan_surjections(4, 3, 2) == (81 - 1) * (81 - 3)
    assert oracle.scan_surjections(2, 3, 3) == 0  # no surjection onto a bigger space


def _surjections_one_by_one(dim, p, k):
    """The per-matrix reference: one rref per candidate."""
    if k == 0:
        return 1
    return sum(rank([entries[i * dim:(i + 1) * dim] for i in range(k)], p) == k
               for entries in product(range(p), repeat=k * dim))


@pytest.mark.parametrize("dim,p,k", [
    (dim, p, k) for dim in (2, 4) for p in (3, 5, 7) for k in range(dim + 2)
    if p ** (k * dim) <= 10 ** 5] + [
    # odd dims and dim 6: the per-coordinate test runs over dim != 2, 4
    (dim, p, k) for dim in (3, 5, 6) for p in (3, 5) for k in range(dim + 1)
    if p ** (k * dim) <= 2 * 10 ** 4])
def test_scan_surjections_matches_per_matrix_rank(dim, p, k):
    assert oracle.scan_surjections(dim, p, k) == _surjections_one_by_one(dim, p, k)


@pytest.mark.parametrize("dim,p,k", [(2, 3, 1), (2, 3, 2), (4, 3, 2), (2, 5, 2), (2, 7, 2),
                                     (3, 3, 2), (3, 5, 1), (5, 3, 1), (6, 3, 1)])
def test_scan_surjections_is_split_invariant(monkeypatch, dim, p, k):
    # blocks of 1, p, ..., p^(k dim) candidates: the prefix runs from every
    # cell down to none (a single empty prefix)
    expected = _surjections_one_by_one(dim, p, k)
    for t in range(k * dim + 1):
        monkeypatch.setattr(oracle, "_SURJECTION_BLOCK", p ** t)
        assert oracle.scan_surjections(dim, p, k) == expected, t


def test_scan_surjections_past_dim_needs_no_scan(monkeypatch):
    # a 9 x 2 matrix has rank at most 2: the answer is 0 under any cap
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", "1")
    assert oracle.scan_surjections(2, 3, 9) == 0


def test_scan_surjections_cap_and_independence(monkeypatch):
    # the charge is the work: 5^8 candidates, each against the 6 lines of F_5^2
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", str(5 ** 8 * 6))
    assert oracle.scan_surjections(4, 5, 2) == 386_880

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the surjection scan reached a forbidden helper")

    # formula-free: neither the closed form nor the Gaussian binomial is used
    monkeypatch.setattr(counting, "gamma_k", forbidden)
    monkeypatch.setattr(modp, "p_binomial", forbidden)
    assert oracle.scan_surjections(4, 3, 2) == (81 - 1) * (81 - 3)
    # the cap raises before the line table or any candidate table is built
    monkeypatch.setattr(oracle, "_projective_lines", forbidden)
    monkeypatch.setattr(oracle, "_vectors", forbidden)
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", str(5 ** 8 * 6 - 1))
    with pytest.raises(CapExceeded, match="against 6 lines"):
        oracle.scan_surjections(4, 5, 2)


def test_scan_matrices_cap_and_independence(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the matrix scan reached a forbidden helper")

    oracle._gram_count.cache_clear()  # so the counts below run the scan

    # formula-free: no closed form, Gaussian binomial or sigma enumeration
    for name, value in vars(counting).items():
        if callable(value) and getattr(value, "__module__", None) == counting.__name__:
            monkeypatch.setattr(counting, name, forbidden)
    monkeypatch.setattr(modp, "p_binomial", forbidden)
    monkeypatch.setattr(morphisms, "_frontier", forbidden)
    assert oracle.scan_matrices(4, 3, 0, es2_constrained=True) == 26001
    assert oracle.sigma_scan_count(ES2, 3, 2, invertible_only=True) == 1296
    # the cap raises before the vectors or the pairing table are built
    monkeypatch.setattr(oracle, "_vectors", forbidden)
    monkeypatch.setattr(oracle, "_pairing_table", forbidden)
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(4, 5, 0)
    monkeypatch.setenv("EXTRASPECIAL_SCAN_CAP", str(3 ** 4 - 1))
    with pytest.raises(CapExceeded):
        oracle.scan_matrices(2, 3, 2)


def test_sigma_scan_count(es1_31, es2_31, es2_32):
    assert oracle.sigma_scan_count(ES1, 3, 1, invertible_only=True) == 48
    assert oracle.sigma_scan_count(ES1, 3, 1, invertible_only=False) == 81
    assert oracle.sigma_scan_count(ES2, 3, 1, invertible_only=True) == 6
    assert oracle.sigma_scan_count(ES2, 3, 1, invertible_only=False) == 15
    # multiplying by the translation/lift factor recovers the morphism counts
    assert 9 * 15 == len(list(enumerate_morphisms(es2_31)))
    # the scan and the pruned column search agree on the es2(3,2) sigmas
    sigmas = sum(len(cols) for _, cols, _ in morphisms._frontier(es2_32, True))
    assert oracle.sigma_scan_count(ES2, 3, 2, invertible_only=True) == sigmas == 1296
    with pytest.raises(ContextError):
        oracle.sigma_scan_count("heis", 3, 1, invertible_only=True)
