import itertools
import math

import pytest
from hypothesis import given, strategies as st

from delpezzo.errors import InputError
from delpezzo.picard import (
    PicardLattice,
    format_divisor,
    integer_adjugate,
    parse_divisor,
    parse_divisor_list,
    reflect,
    vadd,
    vneg,
    vscale,
    vsub,
    vsum,
)

LAT3 = PicardLattice.standard(3)
divisors3 = st.tuples(*[st.integers(-9, 9)] * 7)


def test_standard_lattice_shape():
    for degree in range(1, 10):
        lat = PicardLattice.standard(degree)
        assert lat.rank == 10 - degree
        assert lat.degree == degree
        assert lat.square(lat.canonical) == degree


def test_hirzebruch_lattice():
    hz = PicardLattice.hirzebruch()
    assert hz.degree == 8
    assert hz.intersect((1, 0), (0, 1)) == 1
    assert hz.square((1, 0)) == 0
    assert hz.square((1, -1)) == -2


def test_intersection_examples():
    lat = PicardLattice.standard(6)
    L = (1, 0, 0, 0)
    E1 = (0, 1, 0, 0)
    assert lat.intersect(L, L) == 1
    assert lat.intersect(E1, E1) == -1
    assert lat.intersect(L, E1) == 0
    assert lat.k_product(E1) == -1


def test_classify_r():
    lat = PicardLattice.standard(6)
    assert lat.classify_r((0, 1, 0, 0)) == -1  # E1
    assert lat.classify_r((1, 0, 0, 0)) == 1  # L
    assert lat.classify_r((1, -1, 0, 0)) == 0  # L - E1
    assert lat.classify_r((1, -1, -1, 0)) == -1  # L - E1 - E2
    assert lat.classify_r((0, 1, -1, 0)) == -2  # E1 - E2
    assert lat.classify_r(lat.canonical) is None


def test_chi():
    lat = PicardLattice.standard(3)
    assert lat.chi(lat.zero()) == 1
    assert lat.chi(vneg(lat.canonical)) == 4


def test_enumerate_small_counts():
    assert len(PicardLattice.standard(7).enumerate_classes(-2)) == 2
    assert len(PicardLattice.standard(6).enumerate_classes(-2)) == 8
    assert len(PicardLattice.standard(6).enumerate_classes(-1)) == 6
    assert len(PicardLattice.standard(5).enumerate_classes(-1)) == 10


def test_enumerate_degree6_lines_explicit():
    lat = PicardLattice.standard(6)
    expected = set(parse_divisor_list(lat, "E1,E2,E3,L12,L13,L23"))
    assert set(lat.enumerate_classes(-1)) == expected


def test_enumerate_unsupported():
    with pytest.raises(InputError):
        PicardLattice.standard(3).enumerate_classes(2)
    with pytest.raises(InputError):
        PicardLattice.hirzebruch().enumerate_classes(-1)


def test_parse_shorthand():
    lat = PicardLattice.standard(3)
    assert parse_divisor(lat, "L") == (1, 0, 0, 0, 0, 0, 0)
    assert parse_divisor(lat, "L25") == (1, 0, -1, 0, 0, -1, 0)
    assert parse_divisor(lat, "E25") == (0, 0, 1, 0, 0, 1, 0)
    assert parse_divisor(lat, "Z") == (2, -1, -1, -1, -1, -1, -1)
    assert parse_divisor(lat, "Q25") == (2, -1, 0, -1, -1, 0, -1)
    assert parse_divisor(lat, "C6") == (3, -1, -1, -1, -1, -1, -2)
    assert parse_divisor(lat, "K") == lat.canonical
    assert parse_divisor(lat, "2L-E1-2E2") == (2, -1, -2, 0, 0, 0, 0)
    # Repeated digits accumulate.
    assert parse_divisor(lat, "3L-E112233")[1:4] == (-2, -2, -2)


def test_parse_errors():
    lat = PicardLattice.standard(6)
    with pytest.raises(InputError):
        parse_divisor(lat, "E9")
    with pytest.raises(InputError):
        parse_divisor(lat, "banana")
    with pytest.raises(InputError):
        parse_divisor(PicardLattice.hirzebruch(), "L")


@given(divisors3)
def test_format_parse_roundtrip(d):
    assert parse_divisor(LAT3, format_divisor(LAT3, d)) == d


@given(divisors3, divisors3)
def test_intersect_symmetric_bilinear(d1, d2):
    assert LAT3.intersect(d1, d2) == LAT3.intersect(d2, d1)
    assert LAT3.intersect(vadd(d1, d2), d1) == LAT3.square(d1) + LAT3.intersect(
        d1, d2
    )


ROOTS3 = PicardLattice.standard(3).enumerate_classes(-2)


@given(divisors3, st.sampled_from(ROOTS3))
def test_reflect_involution(d, root):
    once = reflect(LAT3, d, root)
    assert reflect(LAT3, once, root) == d
    assert LAT3.square(once) == LAT3.square(d)
    assert reflect(LAT3, LAT3.canonical, root) == LAT3.canonical


def test_reflect_transposition():
    lat = PicardLattice.standard(6)
    assert reflect(lat, (0, 1, 0, 0), (0, 1, -1, 0)) == (0, 0, 1, 0)
    with pytest.raises(InputError):
        reflect(lat, (0, 1, 0, 0), (0, 1, 0, 0))


def test_vector_helpers():
    assert vadd((1, 2), (3, 4)) == (4, 6)
    assert vsub((1, 2), (3, 4)) == (-2, -2)
    assert vscale(3, (1, -1)) == (3, -3)
    assert vsum([(1, 0), (0, 2), (1, 1)], 2) == (2, 3)


def _leibniz_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_matrices)
def test_integer_adjugate(a):
    det = _leibniz_det(a)
    if det == 0:
        with pytest.raises(InputError):
            integer_adjugate(a)
        return
    adj, d = integer_adjugate(a)
    assert d == det
    n = len(a)
    for i in range(n):
        for j in range(n):
            expected = det if i == j else 0
            assert sum(adj[i][k] * a[k][j] for k in range(n)) == expected
            assert sum(a[i][k] * adj[k][j] for k in range(n)) == expected


def test_integer_adjugate_rejects_non_square():
    with pytest.raises(InputError):
        integer_adjugate([[1, 2, 3], [4, 5, 6]])
