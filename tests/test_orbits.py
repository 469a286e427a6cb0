"""Orbit classification, endomorphism images, and the degeneration verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extraspecial import morphisms, orbits
from extraspecial.errors import CapExceeded, ContextError
from extraspecial.groups import (ES1, ES1_TILDE, ES2, ES2_TILDE, GroupId, delta_iso, group,
                                 lambda_iso)
from extraspecial.morphisms import family_images
from extraspecial.orbits import (CENTER, CENTRAL_NONID, ES1_NONCENTRAL,
                                 ES2_H_MINUS_K, ES2_OB, ES2_ORDER_P2, IDENTITY,
                                 NO_PARTIAL_ORDER, PARTIAL_ORDER, SUBGROUP_H,
                                 TRIVIAL, WHOLE_GROUP, OrbitLabel, classify,
                                 degeneration, endo_image_class, image_contains,
                                 label_count, ob_label, orbit_cardinality, orbit_labels,
                                 orbit_rows, orbits_bruteforce, partial_order_report)

from conftest import spelled_classify, spelled_image_contains


def test_classify_frozen(es1_31, es2_31, es2_32):
    assert str(classify(es1_31.identity())) == "IDENTITY"
    assert str(classify(es1_31.element((0, 0, 2)))) == "CENTRAL_NONID"
    assert str(classify(es1_31.element((1, 2, 0)))) == "ES1_NONCENTRAL"
    assert str(classify(es2_31.element((3, 2)))) == "ES2_OB(2)"
    assert str(classify(es2_31.element((6, 1)))) == "ES2_OB(1)"
    assert str(classify(es2_31.element((1, 0)))) == "ES2_ORDER_P2"
    assert str(classify(es2_31.element((3, 0)))) == "CENTRAL_NONID"
    assert str(classify(es2_32.element((3, 0, 2, 0)))) == "ES2_OB(2)"
    assert str(classify(es2_32.element((0, 1, 0, 0)))) == "ES2_H_MINUS_K"
    assert str(classify(es2_32.element((0, 0, 0, 1)))) == "ES2_H_MINUS_K"
    assert str(classify(es2_32.element((2, 0, 0, 0)))) == "ES2_ORDER_P2"


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_law_classify_equals_the_spelled_slots(data):
    # sparse draws, leaning on the x_1, y_1 and last slots, reach the identity,
    # the centre, K and the O_b orbits
    g = group(*data.draw(st.sampled_from([(kind, p, n) for kind in (ES1, ES2)
                                          for p, n in ((101, 2), (7, 4), (3, 50))])))
    width, p = len(g.ranges), g.p
    slot = st.one_of(st.sampled_from((0, g.n, width - 1)), st.integers(0, width - 1))
    support = data.draw(st.one_of(st.just(range(width)), st.sets(slot, max_size=3)))
    coords = [data.draw(st.one_of(st.integers(0, r - 1), st.integers(0, p - 1).map(
        lambda k, r=r: k * p % r))) if i in support else 0 for i, r in enumerate(g.ranges)]
    e = g.element(coords)
    assert classify(e) == spelled_classify(e)
    for image in {r.image for r in orbit_rows(g)}:
        assert image_contains(g, image, e.coords) == spelled_image_contains(g, image, e.coords)


def test_orbit_labels(es1_31, es2_31, es2_32):
    assert [str(l) for l in orbit_labels(es1_31)] == [
        "IDENTITY", "CENTRAL_NONID", "ES1_NONCENTRAL"]
    assert [str(l) for l in orbit_labels(es2_31)] == [
        "IDENTITY", "CENTRAL_NONID", "ES2_OB(1)", "ES2_OB(2)", "ES2_ORDER_P2"]
    assert [str(l) for l in orbit_labels(es2_32)] == [
        "IDENTITY", "CENTRAL_NONID", "ES2_OB(1)", "ES2_OB(2)",
        "ES2_H_MINUS_K", "ES2_ORDER_P2"]


def test_orbit_cardinalities_sum_to_group_order():
    for kind, p, n in ((ES1, 3, 1), (ES2, 3, 1), (ES1, 5, 1), (ES2, 5, 1),
                       (ES1, 3, 2), (ES2, 3, 2), (ES2, 7, 3)):
        g = group(kind, p, n)
        assert sum(orbit_cardinality(l, g) for l in orbit_labels(g)) == g.size


def test_orbit_cardinality_frozen(es1_31, es2_31, es2_32):
    assert [orbit_cardinality(l, es1_31) for l in orbit_labels(es1_31)] == [1, 2, 24]
    assert [orbit_cardinality(l, es2_31) for l in orbit_labels(es2_31)] == [1, 2, 3, 3, 18]
    assert [orbit_cardinality(l, es2_32) for l in orbit_labels(es2_32)] == [1, 2, 3, 3, 72, 162]


def test_labels_and_sizes_read_only_kind_p_and_n(es2_32):
    gid = GroupId(ES2, 3, 2)
    assert orbit_labels(gid) == orbit_labels(es2_32)
    assert [orbit_cardinality(l, gid) for l in orbit_labels(gid)] == [1, 2, 3, 3, 72, 162]
    big = GroupId(ES2, 1009, 1)
    assert orbit_cardinality(ob_label(1008), big) == 1009
    with pytest.raises(ContextError):
        orbit_cardinality(ob_label(1009), big)


def test_orbit_cardinality_domain_errors(es1_31, es2_31):
    with pytest.raises(ContextError):
        orbit_cardinality(OrbitLabel(ES1_NONCENTRAL), es2_31)
    with pytest.raises(ContextError):
        orbit_cardinality(ob_label(0), es2_31)
    with pytest.raises(ContextError):
        orbit_cardinality(OrbitLabel(ES2_H_MINUS_K), es2_31)  # H = K at n = 1
    # labels orbit_labels never yields: a b off ES2_OB, or none or out of 1..p-1 on it
    for label, g in [(OrbitLabel(IDENTITY, 0), es2_31), (OrbitLabel(ES2_ORDER_P2, 1), es2_31),
                     (OrbitLabel(ES1_NONCENTRAL, 1), es1_31), (OrbitLabel(ES2_OB), es2_31),
                     (OrbitLabel(ES2_OB, 3), es2_31), (OrbitLabel(ES2_OB, -1), es2_31)]:
        assert label not in orbit_labels(g)
        with pytest.raises(ContextError):
            orbit_cardinality(label, g)


def test_label_count_is_the_number_of_labels():
    for gid in (GroupId(ES1, 3, 1), GroupId(ES2, 3, 1), GroupId(ES2, 5, 2), GroupId(ES2, 1009, 1)):
        assert label_count(gid) == len(orbit_labels(gid))
    p = 2 ** 64 - 59  # len(range(1, p)) overflows here
    assert label_count(GroupId(ES2, p, 1)) == p + 2  # p - 1 O_b orbits and three more


def test_bruteforce_partition_matches_classifier(es1_31, es2_31):
    for g in (es1_31, es2_31):
        for cls in orbits_bruteforce(g):
            labels = {str(classify(g.element(c))) for c in cls}
            assert len(labels) == 1
            label = classify(g.element(next(iter(cls))))
            assert orbit_cardinality(label, g) == len(cls)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        orbits_bruteforce(group(ES1, 11, 1))  # 1.6 M automorphisms, past MORPHISM_CAP
    with pytest.raises(CapExceeded, match="TABLE_CAP"):
        orbits_bruteforce(group(ES1, 5, 2))  # 3125 elements


def test_endo_image_class_frozen(es1_31, es2_31, es2_32):
    assert endo_image_class(es1_31.identity()) == TRIVIAL
    assert endo_image_class(es1_31.element((0, 0, 1))) == CENTER
    assert endo_image_class(es1_31.element((0, 1, 0))) == WHOLE_GROUP
    assert endo_image_class(es2_31.element((3, 1))) == SUBGROUP_H
    assert endo_image_class(es2_31.element((1, 1))) == WHOLE_GROUP
    assert endo_image_class(es2_32.element((0, 0, 1, 0))) == SUBGROUP_H
    assert endo_image_class(es2_32.element((0, 1, 0, 0))) == SUBGROUP_H


def image_subgroup_coords(g, image_class):
    return {c for c in g.elements() if image_contains(g, image_class, c)}


def endo_image_set_bruteforce(e):
    """Coordinates of m(e) over every endomorphism m, by full enumeration."""
    g = e.group
    row = np.array([e.coords], dtype=np.int64)
    return {g.coords_at(i) for _, block in morphisms.image_sets(g, row)
            for i in block.ravel().tolist()}


def test_image_sets_brute_vs_closed_form(es1_31, es2_31):
    # one representative per orbit; the whole-group sweep lives in acceptance
    for g in (es1_31, es2_31):
        for label in orbit_labels(g):
            rep = next(c for c in g.elements()
                       if classify(g.element(c)) == label)
            e = g.element(rep)
            expected = image_subgroup_coords(g, endo_image_class(e))
            assert endo_image_set_bruteforce(e) == expected


def test_image_subgroup_sizes(es2_31):
    assert len(image_subgroup_coords(es2_31, TRIVIAL)) == 1
    assert len(image_subgroup_coords(es2_31, CENTER)) == 3
    assert len(image_subgroup_coords(es2_31, SUBGROUP_H)) == 9
    assert len(image_subgroup_coords(es2_31, WHOLE_GROUP)) == 27


def test_degeneration_directions(es1_31, es2_31):
    z, x = es1_31.element((0, 0, 1)), es1_31.element((1, 0, 0))
    assert degeneration(x, z) and not degeneration(z, x)
    assert degeneration(z, es1_31.identity())
    assert degeneration(x, x)
    # the es2 failure mode: distinct orbits, both directions
    g1, g2 = es2_31.element((0, 1)), es2_31.element((0, 2))
    assert classify(g1) != classify(g2)
    assert degeneration(g1, g2) and degeneration(g2, g1)
    with pytest.raises(ContextError):
        degeneration(x, g1)


def test_partial_order_report_es1(es1_31):
    rep = partial_order_report(es1_31)
    assert rep.verdict == PARTIAL_ORDER
    assert rep.verified
    # every strict pair of the chain, in the es1 rows' order
    assert rep.order_chains == ((IDENTITY, CENTRAL_NONID), (IDENTITY, ES1_NONCENTRAL),
                                (CENTRAL_NONID, ES1_NONCENTRAL))
    assert rep.witness is None
    d = rep.to_json_dict()
    assert d["verdict"] == PARTIAL_ORDER and "witness" not in d


def test_es1_order_is_verified_past_the_old_size_guard():
    # es1(7,1), 343 elements: 117,649 endomorphisms on every element
    rep = partial_order_report(group(ES1, 7, 1))
    assert rep.verdict == PARTIAL_ORDER and rep.verified


def test_es1_order_check_refuses_before_any_image(monkeypatch, es1_32):
    # es1(3,2) has 28.9 M endomorphisms, past MORPHISM_CAP: no kernel call
    def kernel(*_args):
        raise AssertionError("an image was computed before the refusal")

    monkeypatch.setattr(morphisms, "_images", kernel)
    with pytest.raises(CapExceeded, match="endomorphism enumeration"):
        partial_order_report(es1_32)


def test_es1_order_check_catches_a_wrong_image_class(monkeypatch, es1_31):
    # the closed-form side of the check: a centre that has lost z and z^2
    real = orbits.image_contains
    monkeypatch.setattr(orbits, "image_contains",
                        lambda g, cls, c: real(g, TRIVIAL if cls == CENTER else cls, c))
    with pytest.raises(AssertionError, match="disagrees with image classes"):
        partial_order_report(es1_31)


def test_partial_order_report_es2(es2_31):
    rep = partial_order_report(es2_31)
    assert rep.verdict == NO_PARTIAL_ORDER
    assert rep.verified
    g1, g2 = rep.witness
    fwd, back = rep.witness_endos
    assert classify(g1) != classify(g2)
    assert fwd.apply(g1) == g2 and back.apply(g2) == g1
    assert not fwd.is_automorphism and not back.is_automorphism
    d = rep.to_json_dict()
    assert d["witness"] == [str(g1), str(g2)]
    assert len(d["witness_endos"]) == 2


def test_partial_order_report_unverified_mode(es2_51):
    # skip verification to stay cheap at larger sizes; verdict is still emitted
    rep = partial_order_report(es2_51, verify=False)
    assert rep.verdict == NO_PARTIAL_ORDER and not rep.verified
    fwd, _ = rep.witness_endos
    assert fwd.apply(rep.witness[0]) == rep.witness[1]


@pytest.mark.parametrize("kind,iso,p,n", [
    (ES1_TILDE, lambda_iso, 3, 1), (ES1_TILDE, lambda_iso, 5, 1),
    (ES2_TILDE, delta_iso, 3, 1), (ES2_TILDE, delta_iso, 5, 1), (ES2_TILDE, delta_iso, 3, 2)])
def test_tilde_orbits_are_partner_orbits(kind, iso, p, n):
    g = group(kind, p, n)
    tilde = orbits_bruteforce(g)
    partner = orbits_bruteforce(iso(g.identity()).group)
    assert [len(c) for c in tilde] == [len(c) for c in partner]
    images = []
    for cls in tilde:
        elements = [g.element(c) for c in cls]
        assert len({classify(e) for e in elements}) == 1
        assert {classify(iso(e)) for e in elements} == {classify(elements[0])}
        images.append(frozenset(iso(e).coords for e in elements))
    assert set(images) == set(partner)


@pytest.mark.parametrize("kind,verdict", [(ES1_TILDE, PARTIAL_ORDER),
                                          (ES2_TILDE, NO_PARTIAL_ORDER)])
def test_tilde_verdicts_are_verified(kind, verdict):
    rep = partial_order_report(group(kind, 3, 1))
    assert (rep.verdict, rep.verified) == (verdict, True)


def _reach_per_sigma(g, invertible_only):
    """reach by the one-sigma path: each family_images block filled in 2-D."""
    N = g.size
    reach = np.zeros((N, N), dtype=bool)
    rows = np.arange(N)[:, None]
    for _, block in family_images(g, g.coords_matrix(), invertible_only):
        reach[rows, block] = True
    return reach


@pytest.mark.parametrize("kind,p,n,invertible_only", [
    (ES1, 3, 1, False), (ES1, 3, 1, True), (ES2, 3, 1, False), (ES2, 3, 1, True),
    (ES1, 5, 1, False), (ES1, 5, 1, True), (ES2, 5, 1, False), (ES2, 5, 1, True),
    (ES2, 3, 2, True)])
def test_reach_matches_the_per_sigma_fill(kind, p, n, invertible_only):
    g = group(kind, p, n)
    reach, auto = orbits._reach_tables(g, invertible_only, None)
    assert np.array_equal(reach, _reach_per_sigma(g, invertible_only))
    # the s != 0 blocks of an endomorphism walk are the automorphisms
    assert np.array_equal(auto, _reach_per_sigma(g, True))


def test_es1_report_walks_the_frontier_once(monkeypatch, es1_31):
    walks = []
    frontier = morphisms._frontier

    def spy(g, invertible_only):
        walks.append(invertible_only)
        return frontier(g, invertible_only)

    monkeypatch.setattr(morphisms, "_frontier", spy)
    assert partial_order_report(es1_31).verified
    assert walks == [False]


def _watch_kernel(monkeypatch):
    """Wrap the kernel; the returned list gets each call's output block."""
    kernel, out = morphisms._images, []

    def watched(*args):
        out.append(kernel(*args))
        return out[-1]

    monkeypatch.setattr(morphisms, "_images", watched)
    return out


def test_reach_charges_each_block_before_its_images(monkeypatch, es1_31):
    # es1(3,1) automorphisms: blocks of 24 sigmas for s = 1 and s = 2, 9 members
    # each; the whole total is charged first, so a refusal makes no kernel call
    blocks = _watch_kernel(monkeypatch)
    for limit in (24 * 9 - 1, 24 * 9, 48 * 9 - 1):
        with pytest.raises(CapExceeded):
            orbits._reach_tables(es1_31, True, limit)
    assert blocks == []
    orbits._reach_tables(es1_31, True, 48 * 9)
    assert sum(len(b) for b in blocks) == 48


def test_orbit_brute_force_keeps_each_kernel_call_within_the_stack(monkeypatch, es2_32):
    blocks = _watch_kernel(monkeypatch)
    partition = orbits_bruteforce(es2_32)
    assert max(b.size for b in blocks) <= morphisms.STACK_CELLS
    # every one of the 1,296 sigmas on every element, with one column per
    # central value: the 3 images each family of 81 automorphisms gives it
    assert sum(b.size for b in blocks) == 1_296 * 243 * 3
    assert sorted(len(c) for c in partition) == [1, 2, 3, 3, 72, 162]


def test_orbit_partition_check_catches_rows_that_overlap(monkeypatch, es1_31):
    # the identity also "reaches" z: its row is no longer its orbit's members
    real = orbits.image_sets

    def leaky(*args):
        blocks = list(real(*args))
        blocks[0][1][0, 0, 0] = 1
        return iter(blocks)

    monkeypatch.setattr(orbits, "image_sets", leaky)
    with pytest.raises(AssertionError, match="image rows do not form a partition"):
        orbits_bruteforce(es1_31)


def test_es2_witness_check_catches_endos_that_do_not_exchange(monkeypatch, es2_31):
    real = orbits._es2_witness

    def same_pair(g):  # fwd sends w_1 = 1 to 2, not back to 1
        g1, _, fwd, back = real(g)
        return g1, g1, fwd, back

    monkeypatch.setattr(orbits, "_es2_witness", same_pair)
    with pytest.raises(AssertionError, match="do not exchange the witness pair"):
        partial_order_report(es2_31)


def test_es2_witness_check_catches_an_automorphism_between_the_pair(monkeypatch, es2_31):
    real = orbits.family_images
    target = es2_31.index(orbits._es2_witness(es2_31)[1].coords)

    def joined(*args):  # the first automorphism now sends g1 to g2
        blocks = list(real(*args))
        blocks[0][1][0, 0] = target
        return iter(blocks)

    monkeypatch.setattr(orbits, "family_images", joined)
    with pytest.raises(AssertionError, match="witness pair unexpectedly automorphic"):
        partial_order_report(es2_31)


# es1(3,1) indices: 0 is the identity, 1 and 2 are z and z^2, 26 is no
# orbit's representative (each is the least member of its orbit)
@pytest.mark.parametrize("cells,value,message", [
    ((0, 0), False, "degeneration not reflexive on an orbit"),
    (0, True, "two distinct orbits degenerate onto each other"),
    (([1, 2], 0), False, "two orbits are incomparable; no total order"),
    ((26, 26), False, "image set varies inside an orbit")])
def test_es1_order_check_catches_each_corrupt_reach_table(monkeypatch, es1_31,
                                                          cells, value, message):
    # the closed-form helpers read the corrupted table, so brute and closed
    # degeneration agree and only the order check on orbits can object
    reach, auto = orbits._reach_tables(es1_31, False, None)
    reach[cells] = value
    monkeypatch.setattr(orbits, "_reach_tables", lambda *args: (reach, auto))
    monkeypatch.setattr(orbits, "endo_image_class",
                        lambda e: reach[e.group.index(e.coords)].tobytes())
    monkeypatch.setattr(orbits, "image_contains",
                        lambda g, cls, c: bool(np.frombuffer(cls, dtype=bool)[g.index(c)]))
    with pytest.raises(AssertionError, match=message):
        partial_order_report(es1_31)
