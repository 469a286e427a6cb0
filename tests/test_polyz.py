from math import prod

import pytest
from hypothesis import given, strategies as st

from extraspecial.modp import p_binomial
from extraspecial.polyz import ZERO, X, Poly

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
ONE = Poly((1,))


def _q_pascal(n: int, k: int) -> Poly:
    """Gaussian binomial by the q-Pascal recursion
    binom(n,k) = binom(n-1,k-1) + q^k binom(n-1,k), which stays inside Z[q]
    with no division, so its coefficients are manifestly non-negative."""
    if k < 0 or k > n:
        return ZERO
    row = [ONE]  # binomials for m = 0
    for m in range(1, n + 1):
        row = [ONE] + [row[j - 1] + X ** j * row[j] for j in range(1, m)] + [ONE]
    return row[k]


def test_construction_strips_leading_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly(()).degree == -1
    assert Poly((0,)) == ZERO == 0
    assert (X ** 3).degree == 3


def test_arithmetic_frozen():
    q = X * X - 1
    assert q == Poly((-1, 0, 1))
    assert q.eval(3) == 8
    assert (q * q).eval(5) == 24 ** 2
    assert q - q == ZERO
    assert -q == 1 - X * X
    assert 2 * X + 1 == X * 2 + ONE == Poly((1, 2))
    assert X ** 0 == 1 and hash(X ** 0) == hash(1)
    assert X != 1 and X != "x"


@given(coeff_lists, coeff_lists, st.integers(min_value=-20, max_value=20))
def test_mul_matches_integer_eval(a, b, x):
    pa, pb = Poly(tuple(a)), Poly(tuple(b))
    assert (pa * pb).eval(x) == pa.eval(x) * pb.eval(x)
    assert (pa + pb).eval(x) == pa.eval(x) + pb.eval(x)
    assert (pa - pb).eval(x) == pa.eval(x) - pb.eval(x)


@given(coeff_lists, st.integers(min_value=-9, max_value=9),
       st.integers(min_value=0, max_value=4), st.integers(min_value=-20, max_value=20))
def test_int_operands_neg_and_pow_match_integer_eval(a, c, k, x):
    pa = Poly(tuple(a))
    assert (pa + c).eval(x) == (c + pa).eval(x) == pa.eval(x) + c
    assert (pa - c).eval(x) == pa.eval(x) - c and (c - pa).eval(x) == c - pa.eval(x)
    assert (pa * c).eval(x) == (c * pa).eval(x) == pa.eval(x) * c
    assert (-pa).eval(x) == -pa.eval(x)
    assert (pa ** k).eval(x) == pa.eval(x) ** k


@given(coeff_lists, st.lists(st.integers(min_value=-9, max_value=9), max_size=4))
def test_divmod_by_a_monic_divisor(a, low):
    num, den = Poly(tuple(a)), Poly(tuple(low) + (1,))
    quot, rem = divmod(num, den)
    assert quot * den + rem == num and rem.degree < den.degree


def test_divmod_leaves_a_remainder_and_refuses_a_non_monic_divisor():
    assert divmod(X ** 2 + 1, X - 1) == (X + 1, 2)
    assert divmod(X ** 3 - 1, X - 1) == (X ** 2 + X + 1, 0)
    with pytest.raises(AssertionError, match="monic"):
        divmod(X ** 2, 2 * X)
    with pytest.raises(AssertionError, match="exponent"):
        X ** -1


def test_p_binomial_checks_a_poly_remainder(monkeypatch):
    assert p_binomial(4, 2, X) == _q_pascal(4, 2)  # one body serves Z and Z[x]
    real = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, d: real(a + 1, d))
    with pytest.raises(AssertionError, match="left a remainder"):
        p_binomial(4, 2, X)


def test_prod_empty_is_one():
    assert prod([]) == ONE
    assert prod([X] * 3) == X ** 3


def test_gaussian_binomial_known():
    # [2 choose 1]_q = q + 1, [4 choose 2]_q = q^4 + q^3 + 2q^2 + q + 1
    assert _q_pascal(2, 1) == Poly((1, 1))
    assert _q_pascal(4, 2) == Poly((1, 1, 2, 1, 1))
    assert _q_pascal(3, 5) == ZERO == p_binomial(3, 5, X)
    assert _q_pascal(3, 0) == ONE == p_binomial(3, 0, X)


def test_gaussian_binomial_matches_p_binomial():
    for n in range(6):
        for k in range(n + 1):
            g = _q_pascal(n, k)
            assert all(c >= 0 for c in g.coeffs)
            assert p_binomial(n, k, X) == g
            for p in (3, 5, 7):
                assert g.eval(p) == p_binomial(n, k, p)
