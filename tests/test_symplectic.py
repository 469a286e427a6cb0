from extraspecial.modp import Mat
from extraspecial.symplectic import (all_vectors, delta_matrix, is_sp_scalar,
                                     pairing, symp_scalar_test)


def test_delta_matrix_shape():
    d = delta_matrix(2, 3)
    assert d.nrows == d.ncols == 4
    assert not d.is_symmetric()
    assert (d + d.transpose()).is_zero()


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
    assert is_sp_scalar(Mat(3, ((2, 0), (0, 1))))


def test_symp_scalar_test_4x4():
    good = Mat(3, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)))
    assert symp_scalar_test(good) == 2
    # swapping two basis vectors inside the x-block breaks the pairing blocks
    bad = Mat(3, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert symp_scalar_test(bad) is None
    assert not is_sp_scalar(bad)


def test_symp_scalar_matches_pairing_definition():
    vecs = all_vectors(4, 3)
    mats = [Mat(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))),
            Mat(3, ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
    for m in mats:
        l = symp_scalar_test(m)
        assert l is not None
        for v in vecs[::7]:
            for w in vecs[::9]:
                assert pairing(m.mul_vec(v), m.mul_vec(w), 3) == (l * pairing(v, w, 3)) % 3
