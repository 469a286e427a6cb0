import pytest
from hypothesis import given, strategies as st

from extraspecial.errors import DimensionError
from extraspecial.modp import Mat, half, inv_mod, is_odd_prime, p_binomial
from extraspecial.oracle import scan_subspaces

PRIMES = (3, 5, 7, 11, 13)


def test_is_odd_prime():
    assert [q for q in range(2, 20) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)


def test_inv_mod_known():
    assert inv_mod(2, 3) == 2
    assert inv_mod(2, 9) == 5  # units mod p^2 matter for the exponent-p^2 family


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=200))
def test_inv_mod_is_inverse(p, x):
    if x % p == 0:
        with pytest.raises(ZeroDivisionError):
            inv_mod(x, p)
    else:
        assert (x * inv_mod(x, p)) % p == 1


def test_half():
    # half(p) is the inverse of 2, used in the polarization of the group law
    assert half(3) == 2
    assert half(5) == 3
    assert half(11) == 6
    for p in PRIMES:
        assert (2 * half(p)) % p == 1


def test_mat_basic_ops():
    a = Mat(3, ((1, 2), (0, 1)))
    assert Mat(3, ((4, -1), (3, 1))) == a  # entries reduced mod m
    assert a.transpose().rows == ((1, 0), (2, 1))
    assert a.scale(2).rows == ((2, 1), (0, 2))
    assert a.mul_vec((1, 1)) == (0, 1)
    assert Mat.identity(3, 2).mul_vec((2, 1)) == (2, 1)
    assert Mat.from_cols(3, [(1, 0), (2, 1)]) == a


def test_mat_shape_checks():
    with pytest.raises(DimensionError):
        Mat(3, ((1, 2), (1,)))
    with pytest.raises(DimensionError):
        Mat(3, ((1, 2),)).mul_vec((1,))


def test_mat_symmetry_and_submatrix():
    s = Mat(5, ((1, 2), (2, 4)))
    assert s.transpose() == s
    assert Mat(5, ((1, 2), (3, 4))).transpose() != Mat(5, ((1, 2), (3, 4)))
    m = Mat(3, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    assert m.submatrix(range(1, 3), range(0, 2)).rows == ((0, 1), (0, 1))


def test_p_binomial_frozen():
    assert p_binomial(2, 1, 3) == 4    # lines in F_3^2
    assert p_binomial(3, 1, 3) == 13
    assert p_binomial(3, 2, 3) == 13   # duality k <-> n-k
    assert p_binomial(4, 2, 3) == 130
    assert p_binomial(2, 3, 3) == 0


@pytest.mark.parametrize("n,k,p", [(2, 1, 3), (3, 1, 3), (3, 2, 3), (2, 1, 5), (4, 2, 3)])
def test_p_binomial_vs_bruteforce(n, k, p):
    # the echelon-cell walk counts subspaces without the formula
    assert p_binomial(n, k, p) == scan_subspaces(n, p, k)
