"""Block-parametrized endomorphisms: the builder, validation, enumeration, action."""

from itertools import product

import numpy as np
import pytest

from extraspecial import counting, morphisms, oracle
from extraspecial.errors import (CapExceeded, ContextError, DimensionError,
                                 MorphismValidationError)
from extraspecial.groups import (ES1, ES1_TILDE, ES2, ES2_TILDE, TABLE_CAP, Group,
                                 GroupId, group)
from extraspecial.modp import Mat
from extraspecial.morphisms import (build_endo, compose, enumerate_morphisms,
                                    f_table, family_images, image_sets,
                                    inner_automorphism, is_im_phi2_matrix,
                                    params_from_generator_images, scalar_action_check)
from extraspecial.symplectic import symp_scalar_test

from conftest import hom_table, sigmas


def ident_es1(g):
    one, zero = Mat.identity(g.p, g.n), Mat.zeros(g.p, g.n, g.n)
    return build_endo(g, one, one, zero, zero, (0,) * g.n, (0,) * g.n)


def test_identity_endo_es1(es1_31):
    m = ident_es1(es1_31)
    assert m.scalar == 1 and m.is_automorphism
    assert m.apply_coords((1, 0, 0)) == (1, 0, 0)
    assert all(m.apply_coords(c) == c for c in es1_31.elements())


def test_swap_generators_es1(es1_31):
    # x -> y, y -> x inverts the pairing, so l = -1
    g = es1_31
    one, zero = Mat.identity(3, 1), Mat.zeros(3, 1, 1)
    m = build_endo(g, zero, zero, one, one, (0,), (0,))
    assert m.scalar == 2
    assert m.is_automorphism
    assert m.apply_coords((1, 0, 0)) == (0, 1, 0)


def test_builder_rejects_non_similitude():
    g = group(ES1, 3, 2)
    one, zero = Mat.identity(3, 2), Mat.zeros(3, 2, 2)
    shear = Mat(3, ((1, 1), (0, 1)))
    with pytest.raises(MorphismValidationError) as exc:
        build_endo(g, one, shear, zero, zero, (0, 0), (0, 0))
    assert exc.value.identity == "not in symp^scalar"


def test_builder_rejects_wrong_shapes(es1_31, es2_31):
    one = Mat.identity(3, 1)
    with pytest.raises(DimensionError):
        build_endo(es1_31, Mat.identity(3, 2), one, one, one, (0,), (0,))
    with pytest.raises(TypeError, match="block C must be a Mat"):
        build_endo(es1_31, one, one, [[1]], one, (0,), (0,))
    with pytest.raises(DimensionError):
        build_endo(es1_31, one, one, one, one, (0, 0), (0,))
    with pytest.raises(DimensionError):
        build_endo(es1_31, Mat.identity(5, 1), one, one, one, (0,), (0,))
    # alpha covers the x_i outside the power form's support: none of es2(3,1)'s
    with pytest.raises(DimensionError):
        build_endo(es2_31, one, one, one, one, (0,), (0,))
    # a lift only where the power form is nonzero
    with pytest.raises(ContextError):
        build_endo(es1_31, one, one, one, one, (0,), (0,), 1)
    # es1~ and es2~ share omega and M - M^t with es1 and es2: the same answers
    m = build_endo(group(ES1_TILDE, 3, 1), one, one, one, one, (0,), (0,))
    assert (m.sigma, m.f, m.s) == (Mat(3, ((1, 1), (1, 1))), (0, 0), 0)
    with pytest.raises(MorphismValidationError) as exc:
        build_endo(group(ES2_TILDE, 3, 1), one, one, one, one, (), (0,))
    assert "c_{1j}=0" in str(exc.value)
    m = inner_automorphism(group(ES1_TILDE, 3, 1).element((1, 0, 0)))
    assert (m.sigma, m.f, m.s) == (Mat.identity(3, 2), (0, 1), 1)


def test_es2_first_row_constraints():
    g = group(ES2, 3, 2)
    one, zero = Mat.identity(3, 2), Mat.zeros(3, 2, 2)
    bad_a = Mat(3, ((1, 1), (0, 1)))
    with pytest.raises(MorphismValidationError) as exc:
        build_endo(g, bad_a, one, zero, zero, (0,), (0, 0), 1)
    assert "a_{1j}=0" in str(exc.value)
    bad_c = Mat(3, ((1, 0), (0, 0)))
    with pytest.raises(MorphismValidationError) as exc:
        build_endo(g, one, one, bad_c, zero, (0,), (0, 0), 1)
    assert "c_{1j}=0" in str(exc.value)


def test_es2_central_scalar_must_lift_a11(es2_31):
    one, zero = Mat.identity(3, 1), Mat.zeros(3, 1, 1)
    with pytest.raises(MorphismValidationError) as exc:
        build_endo(es2_31, one, one, zero, zero, (), (0,), 2)
    assert "a != a_11" in str(exc.value)
    # all three lifts of a_11 = 1 are distinct morphisms
    lifts = [build_endo(es2_31, one, one, zero, zero, (), (0,), a) for a in (1, 4, 7)]
    assert len({m.param_key() for m in lifts}) == 3
    assert [m.s for m in lifts] == [1, 1, 1]
    # the default lift is a_11 itself
    two = one.scale(2)
    assert build_endo(es2_31, two, one, zero, zero, (), (0,)).scalar == 2
    assert build_endo(es2_31, two, one, zero, zero, (), (0,)) == build_endo(
        es2_31, two, one, zero, zero, (), (0,), 2)


def test_es2_frozen_applies(es2_31):
    one, zero = Mat.identity(3, 1), Mat.zeros(3, 1, 1)
    m = build_endo(es2_31, one, one, zero, zero, (), (0,), 4)
    assert m.apply_coords((1, 0)) == (4, 0)
    assert m.is_automorphism
    m0 = build_endo(es2_31, zero, zero, zero, zero, (), (1,), 0)
    assert m0.apply_coords((0, 1)) == (3, 0)  # y_1 lands on the central generator
    assert not m0.is_automorphism


def test_apply_is_homomorphism_sampled(endos_es1_31, endos_es2_31):
    for m in endos_es1_31[::97] + endos_es2_31[::17]:
        g = m.group
        elems = list(g.elements())
        for a in elems[::5]:
            for b in elems[::7]:
                assert m.apply_coords(g.mul(a, b)) == g.mul(m.apply_coords(a),
                                                            m.apply_coords(b))


def test_table_matches_apply(endos_es1_31, endos_es2_31):
    # table and apply_coords share one formula; hom_table is the independent route
    for m in endos_es1_31[::41] + endos_es2_31[::29]:
        g = m.group
        t = m.table()
        for c in g.elements():
            assert t[g.index(c)] == g.index(m.apply_coords(c))
        images = tuple(m.apply(x).coords for x in g.generators())
        assert np.array_equal(t, hom_table(g, images))


@pytest.mark.parametrize("kind,p", [(ES1, 3), (ES2, 3), (ES2, 5)])
@pytest.mark.parametrize("invertible_only", [False, True])
def test_family_images_match_morphism_tables(kind, p, invertible_only):
    g = group(kind, p, 1)
    E = g.coords_matrix()
    enum = enumerate_morphisms(g, invertible_only)
    blocks = list(family_images(g, E, invertible_only))
    assert [s for s, _ in blocks] == [s for _, s in sigmas(g, invertible_only)]
    for _, block in blocks:
        assert block.shape == (g.size, p ** 2)
        for col in block.T:
            assert np.array_equal(col, next(enum).table())
    assert next(enum, None) is None


def test_family_images_one_row_is_a_row_of_the_full_block(es2_31):
    g = es2_31
    i = g.index((4, 2))
    full = family_images(g, g.coords_matrix())
    one = family_images(g, g.coords_matrix()[i:i + 1])
    for (_, a), (_, b) in zip(full, one, strict=True):
        assert b.shape == (1, 9)
        assert np.array_equal(a[i], b[0])


def test_family_images_cap_counts_whole_families(es2_31, monkeypatch):
    # es2(3,1) has 54 automorphisms: 6 quotient matrices of 9 members each
    E = es2_31.coords_matrix()
    assert len(list(family_images(es2_31, E, True, limit=54))) == 6
    with pytest.raises(CapExceeded):
        list(family_images(es2_31, E, True, limit=53))
    monkeypatch.setenv("EXTRASPECIAL_MORPHISM_CAP", "53")
    with pytest.raises(CapExceeded):
        list(enumerate_morphisms(es2_31, True))


def test_enumeration_counts(endos_es1_31, endos_es2_31, autos_es1_31, autos_es2_31):
    assert len(endos_es1_31) == 729
    assert len(endos_es2_31) == 135
    assert len(autos_es1_31) == 432
    assert len(autos_es2_31) == 54
    assert len({m.param_key() for m in endos_es1_31}) == 729
    assert len({m.param_key() for m in endos_es2_31}) == 135
    auto_keys = {m.param_key() for m in autos_es2_31}
    assert auto_keys == {m.param_key() for m in endos_es2_31 if m.is_automorphism}


@pytest.mark.parametrize("kind,partner", [(ES1_TILDE, ES1), (ES2_TILDE, ES2)])
@pytest.mark.parametrize("p", [3, 5])
def test_tilde_counts_are_the_partner_counts(kind, partner, p):
    g = group(kind, p, 1)
    assert sum(1 for _ in enumerate_morphisms(g)) == counting.end_order(partner, p, 1)
    assert sum(1 for _ in enumerate_morphisms(g, True)) == counting.aut_order(partner, p, 1)


@pytest.mark.parametrize("kind", [ES1_TILDE, ES2_TILDE])
def test_tilde_maps_are_the_homomorphisms_of_the_generator_search(kind):
    # 729 and 135 maps, each a homomorphism: its table is the normal-form map
    g = group(kind, 3, 1)
    found = []
    for i, m in enumerate(enumerate_morphisms(g)):
        images = tuple(m.apply(x).coords for x in g.generators())
        found.append(images)
        if i % 7 == 0:
            assert np.array_equal(m.table(), hom_table(g, images))
    assert sorted(found) == sorted(oracle.enumerate_homs_by_generators(g))


def test_build_endo_rebuilds_every_enumerated_morphism(endos_es1_31, endos_es2_31, es2_51):
    # one builder for both kinds: the lift is passed only where the power form is nonzero
    for m in endos_es1_31 + endos_es2_31 + list(enumerate_morphisms(es2_51)):
        g = m.group
        lift = (m.scalar,) if any(g.power_form()) else ()
        rebuilt = build_endo(g, m.A, m.B, m.C, m.D, m.alpha, m.beta, *lift)
        assert rebuilt.param_key() == m.param_key()
        assert (rebuilt.s, rebuilt.scalar, rebuilt.scalar_name) == (m.s, m.scalar, m.scalar_name)


def test_is_automorphism_matches_table_bijectivity(endos_es2_31):
    for m in endos_es2_31:
        bijective = len(set(m.table().tolist())) == m.group.size
        assert m.is_automorphism == bijective


def test_enumerate_sigma_counts(es1_31, es2_31):
    # n = 1: every 2x2 matrix is a similitude, the invertible ones form GL_2
    assert len(list(sigmas(es1_31))) == 81
    assert len(list(sigmas(es1_31, invertible_only=True))) == 48
    # es2 first-row constraints cut the pool to 6 units + 9 singular
    assert len(list(sigmas(es2_31, invertible_only=True))) == 6
    assert len(list(sigmas(es2_31))) == 15
    for mat, s in sigmas(es2_31):
        assert mat.entry(0, 0) == s and mat.entry(0, 1) == 0


def _brute_sigmas(g, invertible_only):
    """(sigma, s) by filtering every 2n x 2n matrix with symp_scalar_test."""
    p, dim = g.p, 2 * g.n
    out = set()
    for entries in product(range(p), repeat=dim * dim):
        mat = Mat(p, [entries[i * dim:(i + 1) * dim] for i in range(dim)])
        s = symp_scalar_test(mat)
        if s is None or (invertible_only and s == 0):
            continue
        # es2: the first row is (a_11, a_12..a_1n | c_11..c_1n) = (s, 0, .., 0)
        if g.kind == ES2 and (mat.entry(0, 0) != s or any(mat.rows[0][1:])):
            continue
        out.add((mat, s))
    return out


@pytest.mark.parametrize("kind", [ES1, ES2])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("invertible_only", [False, True])
def test_enumerate_sigma_matches_a_brute_filter(kind, p, invertible_only):
    g = group(kind, p, 1)
    got = list(sigmas(g, invertible_only))
    assert len(set(got)) == len(got)
    assert set(got) == _brute_sigmas(g, invertible_only)
    # grouped by scalar, then lexicographic in the column tuple
    keys = [(s, tuple(zip(*mat.rows))) for mat, s in got]
    assert keys == sorted(keys)


def _sigma_keys(g):
    """{key: s} over the matrices of enumerate_sigma (the frontier's), in its
    order; a matrix's key reads its entries, row by row, as base-p digits."""
    digits = g.p ** np.arange((2 * g.n) ** 2)
    return {key: s for V, cols, s in morphisms._frontier(g, False)
            for key in (V[cols].transpose(0, 2, 1).reshape(len(cols), -1) @ digits).tolist()}


def _builds(build, *args):
    try:
        return build(*args)
    except MorphismValidationError:
        return None


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_builders_accept_exactly_the_enumerated_sigmas(p, n):
    # every 2 x 2 matrix; at n = 2 a fixed-seed sample of uniform 4 x 4
    # matrices plus some enumerated ones of each kind, so both verdicts occur
    dim = 2 * n
    es1, es2 = group(ES1, p, n), group(ES2, p, n)
    keys1, keys2 = _sigma_keys(es1), _sigma_keys(es2)
    digits = p ** np.arange(dim * dim)
    keys = range(p ** (dim * dim))
    if n > 1:
        keys = (np.random.default_rng(0).integers(len(keys), size=400).tolist()
                + list(keys1)[::1999] + list(keys2)[::199])
    accepted = [0, 0]
    for key in keys:
        sigma = Mat(p, (key // digits % p).reshape(dim, dim).tolist())
        A, B, C, D = morphisms.split_sigma(es1, sigma)
        m = _builds(build_endo, es1, A, B, C, D, (0,) * n, (0,) * n)
        assert (m is not None) == (key in keys1)
        assert m is None or (m.sigma == sigma and m.s == keys1[key])
        for t in range(p):
            a = A.entry(0, 0) + p * t
            m2 = _builds(build_endo, es2, A, B, C, D, (0,) * (n - 1), (0,) * n, a)
            assert (m2 is not None) == (key in keys2)
            assert m2 is None or (m2.sigma == sigma and m2.scalar == a)
        accepted[0] += m is not None
        accepted[1] += m2 is not None
    assert min(accepted) > 0 and accepted[1] < len(keys)


@pytest.mark.parametrize("kind,invertible_only,count", [
    (ES1, True, 103_680), (ES1, False, 356_481), (ES2, True, 1_296), (ES2, False, 27_297)])
def test_frontier_counts_match_the_matrix_scan(kind, invertible_only, count):
    g = group(kind, 3, 2)
    got = sum(len(cols) for _, cols, _ in morphisms._frontier(g, invertible_only))
    assert got == count == oracle.sigma_scan_count(kind, 3, 2, invertible_only)


def test_frontier_is_independent_of_the_oracle_scans(monkeypatch, es1_31):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the frontier reached an oracle scan helper")

    for name in ("scan_matrices", "sigma_scan_count", "_count", "_pairing_table", "_vectors"):
        monkeypatch.setattr(oracle, name, forbidden)
    assert "oracle" not in vars(morphisms)
    assert len(list(sigmas(es1_31))) == 81
    assert sum(1 for _ in sigmas(group(ES2, 3, 2), invertible_only=True)) == 1296


def test_frontier_refuses_an_oversized_pairing_table():
    # es1(3,4): F_3^8 has 6561 vectors, a 43 M-cell table
    g = Group(GroupId(ES1, 3, 4))
    with pytest.raises(CapExceeded):
        next(sigmas(g))


def test_cap_is_charged_per_block_before_images():
    # es2(5,2): families of 5^4 members; the limit admits 160 of them
    g = group(ES2, 5, 2)
    row = g.coords_matrix()[:1]
    seen = 0
    with pytest.raises(CapExceeded):
        for _ in family_images(g, row, True, limit=100_000):
            seen += 1
    assert seen * 5 ** 4 <= 100_000


def _walk(g, E):
    """The monomials of the rows of E and their central steps for all p^2n
    central functionals, built once as a walk does."""
    return morphisms._walk_inputs(g, E, morphisms._functionals(g))


@pytest.mark.parametrize("kind,p,n,step", [
    (ES1, 3, 1, 1), (ES2, 3, 1, 1), (ES1, 5, 1, 1), (ES2, 5, 1, 1), (ES2, 3, 2, 157)])
def test_stacked_kernel_equals_one_sigma_calls(kind, p, n, step):
    # every frontier block (every step-th sigma of it) as one stack, singular ones too
    g = group(kind, p, n)
    E = g.coords_matrix()
    W, shift = _walk(g, E)
    for V, cols, s in morphisms._frontier(g, False):
        sigma = V[cols[::step]].transpose(0, 2, 1)
        stacked = morphisms._images(g, sigma, s, E, W, shift)
        assert stacked.shape == (len(sigma), g.size, p ** (2 * n))
        for one, block in zip(sigma, stacked, strict=True):
            assert np.array_equal(morphisms._images(g, one[None], s, E, W, shift)[0], block)


@pytest.mark.parametrize("invertible_only", [False, True])
@pytest.mark.parametrize("kind,p", [(ES1, 3), (ES2, 3), (ES1, 5), (ES2, 5)])
def test_image_sets_are_the_family_image_sets_in_sigma_order(kind, p, invertible_only):
    g = group(kind, p, 1)
    E = g.coords_matrix()
    stacks = list(image_sets(g, E, invertible_only))
    assert all(b.shape[1:] == (g.size, p) for _, b in stacks)
    flat = [(s, sets) for s, stack in stacks for sets in stack]
    singles = list(family_images(g, E, invertible_only))
    assert len(flat) == len(singles)
    for (s, sets), (t, block) in zip(flat, singles):
        assert s == t
        assert [set(r) for r in sets.tolist()] == [set(r) for r in block.tolist()]


@pytest.mark.parametrize("invertible_only", [False, True])
def test_image_sets_refuse_one_morphism_short_before_any_image(monkeypatch, es2_31,
                                                               invertible_only):
    g, E = es2_31, es2_31.coords_matrix()
    total = sum(len(cols) for _, cols, _ in morphisms._frontier(g, invertible_only)) * 9
    kernel, calls = morphisms._images, []
    monkeypatch.setattr(morphisms, "_images", lambda *a: calls.append(a) or kernel(*a))
    with pytest.raises(CapExceeded):
        next(image_sets(g, E, invertible_only, total - 1))
    assert calls == []
    assert sum(len(b) for _, b in image_sets(g, E, invertible_only, total)) * 9 == total


def test_images_stay_exact_just_below_the_index_limit():
    # |G| = p^3 just below 2^63: the kernel's quadratic term once overflowed
    # int64, and es2's central slot ranges over p^2
    p = 2000003
    one, zero = Mat(p, [[1]]), Mat(p, [[0]])
    rng = np.random.default_rng(3)
    cases = [
        # (u, w, z) -> (u, w - u, z - u^2 / 2)
        (ES1, (0,), (0,), (p - 1, p - 1, 0), (p - 1, 0, (p - 1) // 2)),
        # (u1, w1) -> (u1 + p (5 w1 - u1^2 / 2), w1 - u1)
        (ES2, (), (5,), (p - 1, p - 1), (p - 1 + p * ((p - 1) // 2 - 5), 0)),
    ]
    for kind, alpha, beta, x, image in cases:
        g = group(kind, p, 1)
        m = build_endo(g, one, one, zero, Mat(p, [[p - 1]]), alpha, beta)
        for _ in range(20):
            a, b = (g.element([int(rng.integers(r)) for r in g.ranges]) for _ in range(2))
            assert m.apply(a * b) == m.apply(a) * m.apply(b)
        assert m.apply(g.element(x)).coords == image


@pytest.mark.parametrize("kind,alpha,x,image", [
    # (u, w, z) -> (u, w + D u, z + 3 u_2 + 5 w_1 + (u_2^2 - u_1^2) / 2)
    (ES1, (0, 3), (2, 1, 6202, 0, 7), (2, 1, 6200, 1, 3105)),
    # (u_1, u_2, w) -> (u_1 + p (3 u_2 + 5 w_1 + (u_2^2 - u_1^2) / 2), u_2, w + D u)
    (ES2, (3,), (2 + 7 * 6203, 1, 6202, 0), (2 + 3105 * 6203, 1, 6200, 1)),
])
def test_images_stay_exact_at_n_2_just_below_the_index_limit(kind, alpha, x, image):
    # p = 6203 is the largest prime with p^5 < 2^63; D != 0 makes q nonzero
    p = 6203
    one, zero = Mat.identity(p, 2), Mat.zeros(p, 2, 2)
    g = group(kind, p, 2)
    m = build_endo(g, one, one, zero, Mat(p, [[p - 1, 0], [0, 1]]), alpha, (5, 0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = (g.element([int(rng.integers(r)) for r in g.ranges]) for _ in range(2))
        assert m.apply(a * b) == m.apply(a) * m.apply(b)
    assert m.apply(g.element(x)).coords == image


def test_inner_automorphisms(es1_31, es2_31):
    m = inner_automorphism(es1_31.element((1, 0, 0)))
    assert m.apply_coords((0, 1, 0)) == (0, 1, 1)
    assert m.scalar == 1 and m.is_automorphism
    assert m.sigma == Mat.identity(3, 2) and m.s == 1
    for g in (es1_31, es2_31):
        inners = {inner_automorphism(g.element(c)).param_key() for c in g.elements()}
        assert len(inners) == g.p ** (2 * g.n)  # conjugation factors through G/Z
        for h1, h2 in product(g.elements(), repeat=2):  # Inn(G) is closed under the law
            composed = compose(inner_automorphism(g.element(h1)), inner_automorphism(g.element(h2)))
            assert composed == inner_automorphism(g.element(g.mul(h1, h2)))


@pytest.mark.parametrize("kind", [ES1, ES2, ES1_TILDE, ES2_TILDE])
@pytest.mark.parametrize("n", [1, 2])
def test_inner_automorphism_tables_are_conjugation(kind, n):
    g = group(kind, 3, n)
    T = oracle.mult_table(g)
    inv = np.argmax(T == 0, axis=1)  # index 0 is the identity
    keys = set()
    for h in range(g.size):
        m = inner_automorphism(g.element(g.coords_at(h)))
        assert np.array_equal(m.table(), T[T[h], inv[h]])  # x -> (h x) h^-1
        assert m.sigma == Mat.identity(3, 2 * n) and m.s == 1
        keys.add(m.param_key())
    assert len(keys) == g.p ** (2 * n)  # Inn(G) = G/Z


def test_induced_quotient_matrix_is_the_quotient_action(endos_es2_31):
    for m in endos_es2_31[::13]:
        g = m.group
        for c in list(g.elements())[::4]:
            img = g.quotient_coords(m.apply_coords(c))
            v = g.quotient_coords(c)
            assert img == tuple(sum(x * y for x, y in zip(r, v)) % g.p for r in m.sigma.rows)


def test_params_from_generator_images_round_trip(es1_31, endos_es1_31, endos_es2_31, es2_51):
    g = es1_31
    one, zero = Mat.identity(3, 1), Mat.zeros(3, 1, 1)
    m = build_endo(g, zero, zero, one, one, (1,), (2,))
    recovered = params_from_generator_images(g, [m.apply(x) for x in g.generators()])
    assert recovered == m
    for m in endos_es1_31 + endos_es2_31 + list(enumerate_morphisms(es2_51)):
        imgs = [m.apply(x) for x in m.group.generators()]
        assert params_from_generator_images(m.group, imgs) == m


def test_params_from_generator_images_rejects_bad_input(es2_31, es1_31):
    with pytest.raises(DimensionError):
        params_from_generator_images(es2_31, [es2_31.identity()])
    with pytest.raises(ContextError):
        params_from_generator_images(es2_31, [es1_31.identity(), es1_31.identity()])
    # y_1 must land in the index-p subgroup; a generator outside it cannot
    with pytest.raises(MorphismValidationError):
        params_from_generator_images(
            es2_31, [es2_31.element((1, 0)), es2_31.element((1, 0))])


def _params(m):
    return m.sigma, m.f, m.s


def _sampled_morphisms(g, k, seed):
    """k morphisms (sigma, f, s) of g: s uniform, sigma uniform among the
    frontier's matrices with that s, f uniform."""
    rng = np.random.default_rng(seed)
    by_s = {}
    for V, cols, s in morphisms._frontier(g, False):  # every block shares one V
        by_s.setdefault(s, []).append(cols)
    by_s = {s: np.concatenate(blocks) for s, blocks in by_s.items()}
    out = []
    for s in rng.integers(g.p, size=k).tolist():
        cols = by_s[s]
        sigma = Mat(g.p, V[cols[rng.integers(len(cols))]].T.tolist())
        out.append(morphisms.Morphism(g, sigma, tuple(rng.integers(g.p, size=2 * g.n).tolist()), s))
    return out


def test_compose_law_matches_table_composition_on_every_pair(endos_es2_31):
    # every ordered pair of es2(3,1) endomorphisms against the map whose table
    # is T1[T2], looked up among the 135 enumerated tables
    by_table = {m.table().tobytes(): m for m in endos_es2_31}
    assert len(by_table) == 135
    carries = 0
    for m1, m2 in product(endos_es2_31, repeat=2):
        want = by_table[m1.table()[m2.table()].tobytes()]
        assert _params(compose(m1, m2)) == _params(want)
        carries += m1.s * m2.s >= 3
    assert carries == 729  # s1 = s2 = 2: the pairs that need the carry term


@pytest.mark.parametrize("kind", [ES1, ES2])
def test_compose_law_matches_generator_images_on_sampled_pairs(kind):
    g = group(kind, 3, 2)
    ms = _sampled_morphisms(g, 400, seed=28)
    for m1, m2 in zip(ms[::2], ms[1::2]):
        got = compose(m1, m2)
        want = params_from_generator_images(g, [m1.apply(m2.apply(x)) for x in g.generators()])
        assert _params(got) == _params(want)
        assert np.array_equal(got.table(), want.table())


@pytest.mark.parametrize("kind, p, n", [(ES1, 3, 2), (ES2, 3, 2), (ES2, 5, 1)])
def test_compose_is_associative_with_a_two_sided_unit(kind, p, n):
    g = group(kind, p, n)
    one = morphisms.Morphism(g, Mat.identity(p, 2 * n), (0,) * (2 * n), 1)
    ms = _sampled_morphisms(g, 300, seed=p * n)
    for a, b, c in zip(ms[::3], ms[1::3], ms[2::3]):
        assert _params(compose(compose(a, b), c)) == _params(compose(a, compose(b, c)))
        assert _params(compose(one, a)) == _params(compose(a, one)) == _params(a)


def test_compose_refuses_maps_of_two_groups(endos_es1_31, endos_es2_31):
    with pytest.raises(ContextError):
        compose(endos_es1_31[5], endos_es2_31[5])
    with pytest.raises(ContextError, match="cannot apply es1\\(3,1\\) endomorphism"):
        endos_es1_31[5].apply(endos_es2_31[5].group.identity())
    with pytest.raises(ContextError):
        compose(ident_es1(group(ES1, 5, 1)), endos_es1_31[5])


def test_param_key_sees_the_scalar(es2_31):
    sigma = Mat.identity(3, 2)
    m = morphisms.Morphism(es2_31, sigma, (0, 0), 1)
    wrong = morphisms.Morphism(es2_31, sigma, (0, 0), 2)  # unvalidated, s not fixed by sigma
    assert m != wrong and m.param_key() != wrong.param_key()
    assert len({m, wrong}) == 2


def test_compose_and_inner_read_only_parameters(es1_32, es2_32, monkeypatch):
    cases = []
    for g in (es1_32, es2_32):
        a, b = _sampled_morphisms(g, 2, seed=3)
        h = g.element(g.coords_at(100))
        cases.append((a, b, h, _params(compose(a, b)), _params(inner_automorphism(h))))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the parameter law reached a forbidden helper")

    # no element is mapped, no parameters are re-extracted and the group law is unused
    monkeypatch.setattr(morphisms, "_images", forbidden)
    monkeypatch.setattr(morphisms, "_validated", forbidden)
    monkeypatch.setattr(morphisms, "params_from_generator_images", forbidden)
    monkeypatch.setattr(morphisms.Morphism, "apply", forbidden)
    monkeypatch.setattr(morphisms.Morphism, "_apply_rows", forbidden)
    monkeypatch.setattr(Group, "mul", forbidden)
    monkeypatch.setattr(Group, "inv", forbidden)
    for a, b, h, composed, inner in cases:
        assert _params(compose(a, b)) == composed
        assert _params(inner_automorphism(h)) == inner


def test_compose_matches_pointwise(endos_es2_31):
    ms = endos_es2_31[::23]
    for m1 in ms:
        for m2 in ms:
            c = compose(m1, m2)
            for x in list(m1.group.elements())[::6]:
                assert c.apply_coords(x) == m1.apply_coords(m2.apply_coords(x))


def test_scalar_action_check_modes(endos_es1_31, monkeypatch):
    for m in endos_es1_31[::101]:
        assert scalar_action_check(m)  # 27 elements: every pair, through f_table
    # es1(3,3), past TABLE_CAP: 200 sampled pairs, through symplectic_f
    g = Group(GroupId(ES1, 3, 3))  # uncached, so nothing is built yet
    one, zero = Mat.identity(3, 3), Mat.zeros(3, 3, 3)
    m = build_endo(g, one.scale(2), one, zero, zero, (1, 0, 0), (0, 0, 0))
    assert scalar_action_check(m)
    assert g._np_cache is None  # no table of all elements
    calls = []
    law = g.symplectic_f
    monkeypatch.setattr(g, "symplectic_f", lambda a, b: calls.append(a) or law(a, b))
    assert scalar_action_check(m)
    assert len(calls) == 2 * 200  # both sides of every sampled pair
    # f shifted by 1: f(m(a), m(b)) = 2 f(a, b) + 1 != 2 (f(a, b) + 1), caught
    monkeypatch.setattr(g, "symplectic_f", lambda a, b: (law(a, b) + 1) % 3)
    assert not scalar_action_check(m)


def test_whole_group_tables_refuse_past_the_table_cap():
    # es1(3,3) has 2187 elements, one past TABLE_CAP: an N x N int64 table
    # would be 38 MiB, and es2(3,3)'s would be 3.1 GB
    g = Group(GroupId(ES1, 3, 3))  # uncached, so nothing is built yet
    assert g.size == TABLE_CAP + 139
    with pytest.raises(CapExceeded):
        f_table(g)
    with pytest.raises(CapExceeded):
        oracle.mult_table(g)
    assert g._np_cache is None  # refused before even the coordinate matrix


def test_is_im_phi2_matrix():
    assert is_im_phi2_matrix(Mat(3, ((2, 0), (1, 1))))
    assert not is_im_phi2_matrix(Mat(3, ((2, 0), (1, 2))))  # b_11 != 1
    assert not is_im_phi2_matrix(Mat(3, ((2, 1), (1, 1))))  # c_11 != 0
    assert not is_im_phi2_matrix(Mat(3, ((0, 0), (1, 1))))  # l = 0
    m4 = Mat(3, ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 1)))
    assert is_im_phi2_matrix(m4)
    # at n = 2, on every 8th invertible similitude (the es1(3,2) automorphism
    # sigmas): the predicate holds exactly on the es2(3,2) automorphism sigmas
    induced = {sigma for sigma, _ in sigmas(group(ES2, 3, 2), True)}
    similitudes = [Mat(3, V[c].T.tolist())
                   for V, cols, _ in morphisms._frontier(group(ES1, 3, 2), True) for c in cols[::8]]
    hits = {m for m in similitudes if is_im_phi2_matrix(m)}
    assert hits == induced.intersection(similitudes) and len(hits) > 100


def test_to_json_dict_keys(endos_es1_31, endos_es2_31):
    d1 = endos_es1_31[0].to_json_dict()
    assert "l" in d1 and "a" not in d1
    d2 = endos_es2_31[0].to_json_dict()
    assert "a" in d2 and "l" not in d2
    # the repr names the scalar the same way
    assert repr(endos_es1_31[0]) == f"Morphism(es1(3,1), l={d1['l']})"
    assert repr(endos_es2_31[0]) == f"Morphism(es2(3,1), a={d2['a']})"
    assert set(d1) >= {"group", "A", "B", "C", "D", "alpha", "beta", "automorphism"}
