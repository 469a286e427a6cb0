"""Group cores: laws, normal forms, the two comparison isomorphisms, text I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extraspecial
from extraspecial.errors import ContextError, ParseError
from extraspecial.groups import (ES1, ES1_TILDE, ES2, ES2_TILDE, Group, GroupId,
                                 delta_iso, format_element, group, lambda_iso,
                                 parse_element, parse_group_spec)
from extraspecial.morphisms import f_table


def coords_strategy(g):
    return st.tuples(*(st.integers(min_value=0, max_value=r - 1) for r in g.ranges))


ALL_KINDS_31 = [group(k, 3, 1) for k in (ES1, ES2, ES1_TILDE, ES2_TILDE)]


def test_group_construction():
    g = group(ES1, 3, 1)
    assert g.size == 27 and g.p == 3 and g.n == 1
    assert g.ranges == (3, 3, 3)
    g2 = group(ES2, 3, 2)
    assert g2.size == 3 ** 5
    assert g2.ranges == (9, 3, 3, 3)  # first coordinate runs mod p^2
    assert group(ES2, 5, 1).size == 125
    with pytest.raises(ContextError):
        group("heis", 3, 1)
    with pytest.raises(ContextError):
        group(ES1, 4, 1)
    with pytest.raises(ContextError):
        group(ES1, 2, 1)  # odd primes only: the polarization needs 1/2
    with pytest.raises(ContextError):
        group(ES1, 3, 0)


def test_frozen_products():
    g1 = group(ES1, 3, 1)
    assert g1.mul((1, 1, 1), (2, 0, 1)) == (0, 1, 2)
    assert g1.inv((1, 0, 0)) == (2, 0, 0)
    assert g1.commutator((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    g2 = group(ES2, 3, 1)
    assert g2.mul((1, 0), (8, 1)) == (3, 1)
    assert g2.inv((1, 0)) == (8, 0)
    assert g2.commutator((1, 0), (0, 1)) == (3, 0)


def test_element_orders():
    g1 = group(ES1, 3, 1)
    assert g1.order((0, 0, 0)) == 1
    assert all(g1.order(c) == 3 for c in g1.elements() if c != (0, 0, 0))
    g2 = group(ES2, 3, 1)
    assert g2.order((1, 0)) == 9  # the first generator has order p^2
    assert g2.order((3, 0)) == 3
    assert g2.order((0, 1)) == 3


def _order_by_multiplying(g, a):
    """The reference: multiply by a until the identity comes back."""
    e = (0,) * len(g.ranges)
    acc, k = a, 1
    while acc != e:
        acc, k = g.mul(acc, a), k + 1
    return k


@pytest.mark.parametrize("kind", [ES1, ES2])
@pytest.mark.parametrize("p", [3, 5])
def test_order_from_one_power_matches_the_multiplication_loop(kind, p):
    g = group(kind, p, 1)
    assert all(g.order(a) == _order_by_multiplying(g, a) for a in g.elements())


@pytest.mark.parametrize("g", ALL_KINDS_31, ids=lambda g: str(g.gid))
def test_group_axioms_exhaustive_31(g):
    e = (0,) * len(g.ranges)
    elems = list(g.elements())
    for a in elems:
        assert g.mul(a, e) == a and g.mul(e, a) == a
        assert g.mul(a, g.inv(a)) == e
    # associativity on a deterministic slice; the full check lives in verify
    for a in elems[::5]:
        for b in elems[::4]:
            for c in elems[::3]:
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms_random(data):
    g = group(*data.draw(st.sampled_from([(ES1, 5, 1), (ES2, 5, 1), (ES1, 3, 2), (ES2, 3, 2)])))
    cs = coords_strategy(g)
    a, b, c = data.draw(cs), data.draw(cs), data.draw(cs)
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(a, g.inv(a)) == (0,) * len(g.ranges)
    k = data.draw(st.integers(min_value=-6, max_value=6))
    assert g.power(a, k) == g.power(g.inv(a), -k)


def test_exponent():
    # es1 has exponent p, es2 exponent p^2 with x1 realizing it
    g1, g2 = group(ES1, 5, 1), group(ES2, 5, 1)
    assert all(g1.power(c, 5) == (0, 0, 0) for c in g1.elements())
    assert all(g2.power(c, 25) == (0, 0) for c in g2.elements())
    assert g2.power((1, 0), 5) != (0, 0)


def test_center():
    g1 = group(ES1, 3, 1)
    assert sorted(g1.center_coords()) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    assert g1.is_central((0, 0, 2)) and not g1.is_central((1, 0, 0))
    assert g1.coords_at(g1.z_index) == (0, 0, 1)
    g2 = group(ES2, 3, 1)
    assert sorted(g2.center_coords()) == [(0, 0), (3, 0), (6, 0)]
    assert g2.coords_at(g2.z_index) == (3, 0)
    g22 = group(ES2, 3, 2)
    assert len(g22.center_coords()) == 3
    # commutators are central and the commutator subgroup is the full center
    some = list(g22.elements())[::7]
    comms = {g22.commutator(a, b) for a in some for b in some}
    assert all(g22.is_central(c) for c in comms)


def test_commutator_identity():
    g = group(ES2, 3, 2)
    for a in list(g.elements())[::17]:
        for b in list(g.elements())[::13]:
            lhs = g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
            assert g.commutator(a, b) == lhs


def test_quotient_and_symplectic_form():
    g2 = group(ES2, 3, 1)
    assert g2.quotient_coords((4, 2)) == (1, 2)
    g1 = group(ES1, 3, 1)
    assert g1.quotient_coords((1, 2, 1)) == (1, 2)
    assert g2.element((4, 2)).quotient_coords() == (1, 2)
    # Elements hash by group and coordinates, as they compare
    x, y = g1.element((1, 2, 1)), g1.element((0, 1, 0))
    assert {x, g1.element((1, 2, 1))} == {x} and len({x, g2.element((1, 2))}) == 2
    # the exported symplectic_f reads the group's form on two Elements
    assert extraspecial.symplectic_f(x, y) == g1.symplectic_f(x.coords, y.coords) == 1
    with pytest.raises(ContextError):
        extraspecial.symplectic_f(x, g2.element((1, 2)))
    # one quotient rule for every kind: the batched rows match the tuples
    for kind in (ES1, ES1_TILDE, ES2, ES2_TILDE):
        g = group(kind, 3, 1)
        rows = g._quotient_rows(g.coords_matrix())
        assert [tuple(r) for r in rows.tolist()] == [g.quotient_coords(a) for a in g.elements()]
    # f factors through the quotient and is alternating
    for a in g1.elements():
        assert g1.symplectic_f(a, a) == 0
        for b in list(g1.elements())[::4]:
            assert (g1.symplectic_f(a, b) + g1.symplectic_f(b, a)) % 3 == 0
            za = g1.mul(a, (0, 0, 1))
            assert g1.symplectic_f(za, b) == g1.symplectic_f(a, b)
    # the commutator realizes f through the central generator
    z = g1.coords_at(g1.z_index)
    for a in list(g1.elements())[::2]:
        for b in list(g1.elements())[::3]:
            assert g1.commutator(a, b) == g1.power(z, g1.symplectic_f(a, b))


def test_lambda_iso_frozen():
    gt = group(ES1_TILDE, 3, 1)
    img = lambda_iso(gt.element((1, 1, 0)))
    assert img.group.kind == ES1 and img.coords == (1, 1, 2)
    assert lambda_iso(gt.element((0, 0, 1))).coords == (0, 0, 1)


def test_delta_iso_frozen():
    gt = group(ES2_TILDE, 3, 1)
    img = delta_iso(gt.element((1, 1)))
    assert img.group.kind == ES2 and img.coords == (7, 1)
    assert delta_iso(gt.element((3, 0))).coords == (3, 0)


@pytest.mark.parametrize("kind,p,n", [(ES1_TILDE, 3, 1), (ES2_TILDE, 3, 1)])
def test_isos_are_homomorphisms_31(kind, p, n):
    gt = group(kind, p, n)
    phi = lambda_iso if kind == ES1_TILDE else delta_iso
    seen = set()
    for a in gt.elements():
        ea = phi(gt.element(a))
        seen.add(ea.coords)
        for b in gt.elements():
            eb = phi(gt.element(b))
            assert phi(gt.element(gt.mul(a, b))) == ea * eb
    assert len(seen) == gt.size


def test_iso_domain_checks():
    g = group(ES1, 3, 1)
    with pytest.raises(ContextError):
        lambda_iso(g.element((0, 0, 0)))
    with pytest.raises(ContextError):
        delta_iso(g.element((0, 0, 0)))


def test_elements_order_and_index():
    g = group(ES2, 3, 1)
    elems = list(g.elements())
    assert elems[0] == (0, 0)
    assert elems == sorted(elems)
    assert len(elems) == g.size
    for i in (0, 5, 13, 26):
        assert g.index(g.coords_at(i)) == i
    assert [g.index(c) for c in elems] == list(range(g.size))


def test_element_wrapper_ops():
    g = group(ES1, 3, 1)
    x, y = g.generators()[0], g.generators()[1]
    assert (x * y).coords == (1, 1, 1)
    assert (x ** -1).coords == g.inv(x.coords)
    assert x.commutator(y).coords == (0, 0, 1)
    assert x.order() == 3 and not x.is_central()
    assert g.identity().is_identity()
    h = group(ES1, 5, 1)
    with pytest.raises(ContextError):
        x * h.identity()  # mixed groups never combine silently


@pytest.mark.parametrize("kind", [ES1, ES2, ES1_TILDE, ES2_TILDE])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_form(kind, n):
    # exponent p for the es1 shape; the es2 shape's x_1 has order p^2, its
    # p-th power the central generator
    g = group(kind, 3, n)
    want = tuple(int(kind in (ES2, ES2_TILDE) and i == 0) for i in range(2 * n))
    assert g.power_form() == want
    z = g.element(g.coords_at(g.z_index))
    for x, w in zip(g.generators(), g.power_form(), strict=True):
        assert x ** 3 == z ** w


@pytest.mark.parametrize("kind", [ES1, ES2, ES1_TILDE, ES2_TILDE])
def test_power_form_does_not_read_the_law(kind, monkeypatch):
    # a group built while the law is patched (and then cached by group())
    # must not keep a power form read through that law
    def broken(self, a, b):
        raise AssertionError("Group.mul called while building a group")

    monkeypatch.setattr(Group, "mul", broken)
    for p, n in ((3, 1), (3, 2), (5, 3), (7, 2)):
        g = Group(GroupId(kind, p, n))
        want = tuple(int(kind in (ES2, ES2_TILDE) and i == 0) for i in range(2 * n))
        assert g.power_form() == want


def test_generators_against_presentation():
    from extraspecial.oracle import presentation, satisfies_relations
    for kind, p, n in ((ES1, 3, 1), (ES2, 3, 1), (ES1, 3, 2), (ES2, 3, 2), (ES2, 5, 1)):
        g = group(kind, p, n)
        gens = tuple(x.coords for x in g.generators())
        assert len(gens) == 2 * n
        assert satisfies_relations(g, presentation(g), gens)


def test_parse_group_spec():
    g = parse_group_spec("es2( 3 , 2 )")
    assert g.kind == ES2 and g.p == 3 and g.n == 2
    assert parse_group_spec("es1(3,1)") is group(ES1, 3, 1)  # cached identity
    for bad in ("es3(3,1)", "es1(4,1)", "es1(3)", "es1 3 1", "es1(3,1)x",
                "es1(1_1,1)", "es2(3,\u0661)"):
        with pytest.raises(ParseError):
            parse_group_spec(bad)


def test_parse_format_round_trip():
    samples = [
        "es1(3,1):[1|2|0]",
        "es1(3,2):[1,2|0,1|2]",
        "es2(3,1):[7|2]",
        "es2(3,2):[8|1|2|0]",
        "es2(5,1):[24|4]",
    ]
    for text in samples:
        e = parse_element(text)
        assert format_element(e) == text
        assert parse_element(format_element(e)) == e


def test_parse_element_canonicalizes():
    e = parse_element("es1(3,1):[4|-1|0]")
    assert e.coords == (1, 2, 0)


def test_parse_element_errors_carry_position():
    with pytest.raises(ParseError):
        parse_element("es1(3,1)[1|2|0]")  # missing colon
    with pytest.raises(ParseError) as exc:
        parse_element("es1(3,1):[1|2]")
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        parse_element("es2(3,2):[1|2|3]")  # wrong segment count
    for bad in ("es1(3,1):[1|x|0]", "es1(3,1):[1_0|0|0]", "es2(3,1):[\u0663|1]"):
        with pytest.raises(ParseError):
            parse_element(bad)


@pytest.mark.parametrize("text", [
    "es1(3,1): [1|x|0]", "es1(3,1):[1| x|0]", "es1(3,1):[1, x|0|0]"])
def test_parse_error_position_is_the_offending_tokens_first_character(text):
    with pytest.raises(ParseError, match="non-integer entry 'x'") as exc:
        parse_element(text)
    assert exc.value.position == 13 == text.index("x")


@pytest.mark.parametrize("text,message", [
    ("es2(3,1):[1|2|3]", "es2(3,1) elements use [u1|w1] with 1+1 coordinates"),
    ("es2(3,1):[1||2|]", "es2(3,1) elements use [u1|w1] with 1+1 coordinates"),
    ("es2(3,1):[1,2|0]", "es2(3,1) elements use [u1|w1] with 1+1 coordinates"),
    ("es2(3,3):[1|2|3]", "es2(3,3) elements use [u1|u|w1|w] with 1+2+1+2 coordinates"),
    ("es1(3,2):[1|2|0]", "es1(3,2) elements use [u|w|z] with 2+2+1 coordinates"),
    ("es1(3,1):[1|2]", "es1(3,1) elements use [u|w|z] with 1+1+1 coordinates"),
])
def test_parse_errors_name_the_group_and_its_layout(text, message):
    with pytest.raises(ParseError) as exc:
        parse_element(text)
    assert exc.value.position == 9
    assert str(exc.value) == f"parse error at position 9: {message}"


@pytest.mark.parametrize("kind,n,names", [
    (ES1, 1, ["u", "w", "z"]), (ES1, 2, ["u", "w", "z"]), (ES1_TILDE, 1, ["u", "w", "z"]),
    (ES2, 1, ["u1", "w1"]), (ES2, 2, ["u1", "u", "w1", "w"]), (ES2_TILDE, 3, ["u1", "u", "w1", "w"])])
def test_layout_covers_the_coordinates_in_order(kind, n, names):
    g = group(kind, 3, n)
    assert [name for name, _ in g.layout] == names
    covered = [i for _, sl in g.layout for i in range(len(g.ranges))[sl]]
    assert covered == list(range(len(g.ranges)))


def test_caps_guard_enumeration():
    import extraspecial.config as config
    from extraspecial.errors import CapExceeded
    g = group(ES1, 97, 2)  # 97^5 elements, far past the default element cap
    with pytest.raises(CapExceeded):
        list(g.elements())
    assert config.cap("ELEMENT_CAP") >= 10 ** 6


# -- the paper's formulas, spelled out per kind: the reference for both laws --

def spelled_mul(g, a, b):
    """The product as the paper writes each presentation (module docstring of
    extraspecial.groups), one branch per kind."""
    p, n = g.p, g.n
    if g.kind == ES1:
        tw = sum(a[i] * b[n + i] for i in range(n)) % p
        return tuple((x + y) % p for x, y in zip(a[:-1], b[:-1])) + ((a[-1] + b[-1] + tw) % p,)
    if g.kind == ES1_TILDE:
        sym = sum(a[i] * b[n + i] - a[n + i] * b[i] for i in range(n))
        tw = (g.half * sym) % p
        return tuple((x + y) % p for x, y in zip(a[:-1], b[:-1])) + ((a[-1] + b[-1] + tw) % p,)
    if g.kind == ES2:
        tw = (b[n] * (a[0] % p) + sum(a[i] * b[n + i] for i in range(1, n))) % p
        first = (a[0] + b[0] + p * tw) % (p * p)
        return (first,) + tuple((x + y) % p for x, y in zip(a[1:], b[1:]))
    # ES2_TILDE
    au = (a[0] % p,) + a[1:n]
    bu = (b[0] % p,) + b[1:n]
    aw = a[n:]
    bw = b[n:]
    sym = sum(au[i] * bw[i] - bu[i] * aw[i] for i in range(n))
    tw = (g.half * sym) % p
    first = (a[0] + b[0] + p * tw) % (p * p)
    return (first,) + tuple((x + y) % p for x, y in zip(a[1:], b[1:]))


def spelled_inv(g, a):
    p, n = g.p, g.n
    if g.kind == ES1:
        tw = sum(a[i] * a[n + i] for i in range(n)) % p
        return tuple(-x % p for x in a[:-1]) + ((tw - a[-1]) % p,)
    if g.kind == ES1_TILDE:
        return tuple(-x % p for x in a[:-1]) + (-a[-1] % p,)
    if g.kind == ES2:
        tw = (a[n] * (a[0] % p) + sum(a[i] * a[n + i] for i in range(1, n))) % p
        first = (-a[0] + p * tw) % (p * p)
        return (first,) + tuple(-x % p for x in a[1:])
    # ES2_TILDE: the symmetrized cocycle vanishes on (g, g^-1)
    return (-a[0] % (p * p),) + tuple(-x % p for x in a[1:])


ALL_KINDS = (ES1, ES2, ES1_TILDE, ES2_TILDE)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (3, 2)])
def test_mul_index_matches_tuple_mul_exhaustive(kind, p, n):
    # Group.mul, Group.inv and mul_index against the spelled formulas: every
    # pair at (3,1) and (3,2), a deterministic slice of the pairs at (5,1)
    g = group(kind, p, n)
    elems = list(g.elements())
    left = elems[::3] if p == 5 else elems
    want = [[spelled_mul(g, a, b) for b in elems] for a in left]
    assert [[g.mul(a, b) for b in elems] for a in left] == want
    assert [g.inv(a) for a in elems] == [spelled_inv(g, a) for a in elems]
    A = np.array(left, dtype=np.int64)
    assert g.mul_index(A, g.coords_matrix()).tolist() == [[g.index(c) for c in row] for row in want]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mul_index_matches_tuple_mul_random(data):
    g = group(data.draw(st.sampled_from(ALL_KINDS)), *data.draw(st.sampled_from([(7, 2), (3, 3)])))
    rows = st.lists(coords_strategy(g), min_size=1, max_size=4)
    A, B = data.draw(rows), data.draw(rows)
    want = [[g.index(spelled_mul(g, a, b)) for b in B] for a in A]
    assert g.mul_index(np.array(A), np.array(B)).tolist() == want


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_tuple_law_matches_spelled_formulas_random(data):
    # Group.mul/inv/power/index past the exhaustive sizes, p = 101 included
    g = group(data.draw(st.sampled_from(ALL_KINDS)),
              *data.draw(st.sampled_from([(7, 2), (3, 3), (101, 2)])))
    a, b = data.draw(coords_strategy(g)), data.draw(coords_strategy(g))
    assert g.mul(a, b) == spelled_mul(g, a, b)
    assert g.inv(a) == spelled_inv(g, a)
    i = data.draw(st.integers(min_value=0, max_value=g.size - 1))
    assert g.coords_at(g.index(a)) == a and g.index(g.coords_at(i)) == i
    k = data.draw(st.integers(min_value=-g.p ** 2, max_value=g.p ** 2))
    base = a if k >= 0 else spelled_inv(g, a)
    want = g.identity().coords
    for _ in range(abs(k)):
        want = spelled_mul(g, want, base)
    assert g.power(a, k) == want


def test_tuple_law_at_large_n():
    # the cocycle loop over all n terms, at a size no table reaches
    g = group(ES1, 3, 2000)
    a = tuple(range(4001))
    b = tuple(range(4001, 0, -1))
    a, b = g.element(a).coords, g.element(b).coords
    assert g.mul(a, b) == spelled_mul(g, a, b)
    assert g.inv(a) == spelled_inv(g, a)


@pytest.mark.parametrize("kind, p", [(ES1, 3), (ES2, 3), (ES1_TILDE, 3), (ES2_TILDE, 3), (ES2, 5)])
def test_f_table_matches_symplectic_f(kind, p):
    g = group(kind, p, 1)
    elems = list(g.elements())
    want = np.array([[g.symplectic_f(a, b) for b in elems] for a in elems])
    assert np.array_equal(f_table(g), want)


def test_cocycle_data():
    assert group(ES1, 3, 1).cocycle == group(ES2, 3, 1).cocycle == ((0, 1), (0, 0))
    # (1/2)[[0, 1], [-1, 0]] mod 5, with 1/2 = 3
    assert group(ES1_TILDE, 5, 1).cocycle == group(ES2_TILDE, 5, 1).cocycle == ((0, 3), (2, 0))
    # z^s moves an index by s * z_index: z is (0,0,1) in es1, (p,0) in es2
    assert group(ES1, 5, 1).z_index == 1 and group(ES2, 5, 1).z_index == 25
