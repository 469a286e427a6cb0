import random
from itertools import product

from extraspecial.modp import Mat
from extraspecial.symplectic import all_vectors, pairing, symp_scalar_test


def _pairing(v, w, p):
    """<<v, w>> spelled out: the reference for symp_scalar_test, which reads
    its Gram matrix off symplectic.pairing."""
    n = len(v) // 2
    return sum(v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)) % p


def test_pairing_frozen():
    # basis (x_1..x_n, y_1..y_n): <x_i, y_i> = 1, everything else pairs to 0
    assert pairing((1, 0, 0, 0), (0, 0, 1, 0), 3) == 1
    assert pairing((0, 0, 1, 0), (1, 0, 0, 0), 3) == 2
    assert pairing((1, 0, 0, 0), (0, 0, 0, 1), 3) == 0
    assert pairing((0, 1, 0, 0), (0, 0, 0, 1), 3) == 1


def test_pairing_bilinear_alternating():
    vecs = all_vectors(4, 3)
    for v in vecs[::11]:
        assert pairing(v, v, 3) == 0
        for w in vecs[::13]:
            assert (pairing(v, w, 3) + pairing(w, v, 3)) % 3 == 0
            s = tuple((a + b) % 3 for a, b in zip(v, w))
            for u in vecs[::17]:
                assert pairing(u, s, 3) == (pairing(u, v, 3) + pairing(u, w, 3)) % 3


def test_symp_scalar_test_2x2():
    # for n = 1 every invertible matrix is a similitude with l = det
    assert symp_scalar_test(Mat(3, ((2, 0), (0, 1)))) == 2
    assert symp_scalar_test(Mat(3, ((1, 1), (0, 1)))) == 1
    assert symp_scalar_test(Mat(3, ((1, 2), (2, 1)))) == 0  # det 0: l = 0 is legal here


def test_symp_scalar_test_4x4():
    good = Mat(3, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)))
    assert symp_scalar_test(good) == 2
    # swapping two basis vectors inside the x-block breaks the pairing blocks
    bad = Mat(3, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert symp_scalar_test(bad) is None


def test_symp_scalar_matches_pairing_definition():
    vecs = all_vectors(4, 3)
    mats = [Mat(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))),
            Mat(3, ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
    for m in mats:
        l = symp_scalar_test(m)
        assert l is not None
        for v in vecs[::7]:
            for w in vecs[::9]:
                assert _pairing(m.mul_vec(v), m.mul_vec(w), 3) == (l * _pairing(v, w, 3)) % 3


def test_symp_scalar_test_matches_the_gram_matrix():
    # every 2x2 matrix is a similitude with l = det; at 4x4 a fixed-seed
    # sample against the Gram matrix N^t Delta N, entry by entry
    for p in (3, 5):
        for a, b, c, d in product(range(p), repeat=4):
            assert symp_scalar_test(Mat(p, ((a, b), (c, d)))) == (a * d - b * c) % p
    rng = random.Random(5)
    for _ in range(300):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
        cols = list(zip(*rows))
        gram = [[_pairing(u, v, 3) for v in cols] for u in cols]
        l = gram[0][2]
        want = l if gram == [[0, 0, l, 0], [0, 0, 0, l], [-l % 3, 0, 0, 0], [0, -l % 3, 0, 0]] else None
        assert symp_scalar_test(Mat(3, rows)) == want
