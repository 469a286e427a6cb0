import pytest
from hypothesis import given, strategies as st

from extraspecial import modp
from extraspecial.errors import ContextError, DimensionError
from extraspecial.modp import Mat, half, inv_mod, is_odd_prime, p_binomial

from conftest import subspaces_by_tuples

PRIMES = (3, 5, 7, 11, 13)


def test_is_odd_prime():
    assert [q for q in range(2, 20) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)


def _by_trial_division(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def test_miller_rabin_matches_trial_division_below_100000():
    assert [p for p in range(10 ** 5) if is_odd_prime(p) != _by_trial_division(p)] == []


def test_miller_rabin_on_large_primes_and_strong_pseudoprimes():
    assert is_odd_prime(2 ** 61 - 1) and is_odd_prime(2 ** 31 - 1)
    assert is_odd_prime(10 ** 24 + 7)  # the least prime past 10^24
    assert not any(is_odd_prime(10 ** 24 + d) for d in range(1, 7))
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, in that order;
    # the last is why the base 41 is needed below PRIME_BOUND
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_odd_prime(n)
    assert not is_odd_prime(561) and not is_odd_prime((2 ** 61 - 1) * (2 ** 19 - 1))


def test_primes_at_or_past_the_bound_are_refused():
    with pytest.raises(ContextError, match=str(modp.PRIME_BOUND)):
        is_odd_prime(modp.PRIME_BOUND)
    assert not is_odd_prime(modp.PRIME_BOUND + 1)  # even: no primality test needed


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
    assert a.scale(2).rows == ((2, 1), (0, 2))
    assert Mat.from_cols(3, [(1, 0), (2, 1)]) == a


def test_mat_shape_checks():
    with pytest.raises(DimensionError):
        Mat(3, ((1, 2), (1,)))


def test_mat_symmetry_and_submatrix():
    s = Mat(5, ((1, 2), (2, 4)))
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
    # the tuple reference counts subspaces without the formula
    assert p_binomial(n, k, p) == subspaces_by_tuples(n, p, False, False)[k]
