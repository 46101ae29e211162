import ast
import hashlib
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import delpezzo
from delpezzo.errors import InputError
from delpezzo.picard import (
    PicardLattice,
    class_tuples,
    format_divisor,
    generates_lattice,
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


@pytest.mark.parametrize("lat", [PicardLattice.standard(6), PicardLattice.hirzebruch()])
def test_intersect_rejects_a_wrong_length_on_either_side(lat):
    good, short, long = lat.canonical, lat.canonical[:-1], lat.canonical + (0,)
    for d1, d2 in ((short, good), (long, good), (good, short), (good, long)):
        with pytest.raises(InputError, match="does not match lattice rank"):
            lat.intersect(d1, d2)


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


#: (degree, r) -> (number of r-classes, sha256 of their repr), as the
#: enumeration with the widened search bound gave them.
ENUMERATION_DIGESTS = {
    (1, -2): (240, "8a21fdb52d2d346e0ef7d98c2886d0245ecdf39b2f91b847bfb61fe04e3e1390"),
    (1, -1): (240, "781888064da3148e1a736c37321d9df191aaf6241a53fa641facf3f4aafd59e7"),
    (1, 0): (2160, "22ac5abb3ea85c10f8edb5463ba831214e0fdbb273c319e848bc70c3030a443d"),
    (1, 1): (17520, "61870d99ffa87a9f899d5976918a3c764862f425587b30d935bd5a12000ade71"),
    (2, -2): (126, "8d18f3625e2697f48d3443c4c2ba5dc5d93c0f9f0a9d5acad9fc64bce5a509d4"),
    (2, -1): (56, "073d9feddb92b63be020ab6906b250b2d7105d1251f14760a105310c0e61f19d"),
    (2, 0): (126, "9dceac65ea1e0854e38eb1bb4bae9f60ddda79247fe3ac715f08eeb16d1a431d"),
    (2, 1): (576, "d29dd6bcf5547dcd148b9c7cfe6931bc95303e51cf1c14c46ed42af390a401e5"),
    (3, -2): (72, "28c67e59cbc0796413b88db254c27f2c373f5caa19992cceef5a279c6b90517c"),
    (3, -1): (27, "d2758050ea7b762eeba61a25a09cf5d8dd9a03d95b038e4378c9007694a2303a"),
    (3, 0): (27, "b52d5e057c20e08e04b9e3e7850088341a471aa79827b3b80c8163dd059748d0"),
    (3, 1): (72, "ac1ea376e18a31106ef7af833900c72b3707155f58f2de081dadd6ae38bbe56a"),
    (4, -2): (40, "acfd1691b56095cb762df50b4b6443d43d0c38dced957de4ab4785f7a1ddfd59"),
    (4, -1): (16, "bc8ec8844821865df47459fa447d8e977f090ee8154528010b2294d42cf5da53"),
    (4, 0): (10, "d0cb2cabcb4b9ab332af5eb5779f41e686c5888bb43474082f472f291e1ae9b0"),
    (4, 1): (16, "2b4dea9c8d4da3d7f952c0f0917b8a4d06befd582322dbf1c3436d66750544c7"),
    (5, -2): (20, "2ba83df4fd82c376caea490e7efc3c624c81f54e1ec1c09a068f6ca8241ae299"),
    (5, -1): (10, "f27b80b137ea30eca71994bd1c4e8d62f216f7a3b1e18784c8aad5b2af92a0a3"),
    (5, 0): (5, "78d98b318da16011bd1aa9f0d7998d11b5a16a069543b2715f69f5d964f48fe0"),
    (5, 1): (5, "418aa9e932e9bec90567b60ed346f43ec0b54d3a3e17946388da66869f5d1b9f"),
    (6, -2): (8, "a860bf912a72de8da794bb1c86a1963262b82c1cdb3a3b2579632f760a641aec"),
    (6, -1): (6, "30534f6e05505da4a1db3fcd9a38ae48b1ca3e331fd0b9b5752ca7e51e7947a1"),
    (6, 0): (3, "078e7d9b7120e52b4fa5a17248bee8a8af9d17f6af711d32fe200cd16d7c214c"),
    (6, 1): (2, "4e03146b03296e22a412edbd492a5b5bc05e44cf94d44a3fd61fc2b14529b6a1"),
    (7, -2): (2, "28d5e91326c98222b6a29039dcec48b668a88603dfbdcf21d746a81e83ff6863"),
    (7, -1): (3, "d62be7490bd54bf7e42cd247fb8ee1c91d7af502bf759b5cfa67b28c2b60623e"),
    (7, 0): (2, "54917bf8ed0ff2c8f3621e4ac8edd147dc42851cfeeb73027f0263f447716a59"),
    (7, 1): (1, "eba69ff69688314d9ad3cdac67908c7bf326d7f8b515ae23775bc179df536c34"),
}


def test_enumeration_matches_pinned_digests():
    # The a0 interval of `leading_coefficient_range` is exact: the same
    # classes, in the same order, as the search it replaced.
    for (degree, r), (count, digest) in ENUMERATION_DIGESTS.items():
        classes = PicardLattice.standard(degree).enumerate_classes(r)
        assert len(classes) == count, (degree, r)
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == digest, (degree, r)


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


@given(st.sampled_from([1, 2, 3]), st.data())
def test_reflect_matches_formula(degree, data):
    lat = PicardLattice.standard(degree)
    d = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=lat.rank, max_size=lat.rank)))
    for root in lat.enumerate_classes(-2):
        assert reflect(lat, d, root) == vadd(d, vscale(lat.intersect(d, root), root))
    # Any other vector is refused exactly when the old test refuses it.
    if lat.classify_r(d) == -2 and lat.k_product(d) == 0:
        assert reflect(lat, lat.canonical, d) == lat.canonical
    else:
        with pytest.raises(InputError):
            reflect(lat, lat.canonical, d)


def test_reflect_rejects_non_roots():
    lat = PicardLattice.standard(2)
    d = lat.canonical
    for text in ("E1", "E1+E2", "L-E1-E2", "2L-E1"):
        with pytest.raises(InputError):
            reflect(lat, d, parse_divisor(lat, text))
    with pytest.raises(InputError):
        reflect(lat, d, (0, 1, -1))  # wrong length
    # A non-standard lattice keeps the explicit test: F - G is a root of F0.
    hz = PicardLattice.hirzebruch()
    assert reflect(hz, (1, 0), (1, -1)) == (0, 1)
    with pytest.raises(InputError):
        reflect(hz, (1, 0), (1, 0))


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


def _product_filter(lat, pools, products):
    """Reference for class_tuples: filter the full product, in order."""
    return [
        xs
        for xs in itertools.product(*pools)
        if all(
            lat.intersect(xs[j], xs[i]) == products[j][i]
            for i in range(len(xs))
            for j in range(i)
        )
    ]


def test_class_tuples_match_product_filter_on_a3_roots():
    lat = PicardLattice.standard(4)
    roots = lat.enumerate_classes(-2)
    a3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    found = list(class_tuples(lat, [roots] * 3, a3))
    assert found == _product_filter(lat, [roots] * 3, a3)
    assert found  # A3 embeds in D5


@pytest.mark.parametrize("squares", [(-1, -1, -2, -1), (-2, -1, -2, -2)])
def test_class_tuples_match_product_filter_on_toric_heads(squares):
    # Heads A_1..A_4 of degree-5 systems (the 7a and 7b squares):
    # consecutive products 1, all others 0.
    lat = PicardLattice.standard(5)
    pools = [lat.enumerate_classes(r) for r in squares]
    k = len(squares)
    products = [[int(i == j + 1) for i in range(k)] for j in range(k)]
    found = list(class_tuples(lat, pools, products))
    assert found == _product_filter(lat, pools, products)
    assert found


def _hermite_generates_lattice(terms, rank):
    """The earlier Hermite-elimination span test: pivot product +-1."""
    rows = [list(t) for t in terms]
    det = 1
    for col in range(rank):
        pivot = None
        for r in range(col, len(rows)):
            if rows[r][col] != 0:
                if pivot is None or abs(rows[r][col]) < abs(rows[pivot][col]):
                    pivot = r
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        changed = True
        while changed:
            changed = False
            for r in range(col + 1, len(rows)):
                if rows[r][col] != 0:
                    q = rows[r][col] // rows[col][col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[col])]
                    if rows[r][col] != 0:
                        rows[col], rows[r] = rows[r], rows[col]
                        changed = True
        det *= rows[col][col]
    return abs(det) == 1


row_sets = st.integers(1, 4).flatmap(
    lambda rank: st.tuples(
        st.just(rank),
        st.lists(
            st.lists(st.integers(-4, 4), min_size=rank, max_size=rank), max_size=rank + 2
        ),
    )
)


@given(row_sets)
def test_generates_lattice_matches_hermite(case):
    rank, rows = case
    assert generates_lattice(rows, rank) == _hermite_generates_lattice(rows, rank)


def test_generates_lattice_by_hand():
    assert not generates_lattice([(2, 0), (0, 1), (0, 3)], 2)
    assert generates_lattice([(2, 0), (3, 0), (0, 1)], 2)


def test_library_has_no_floating_point():
    # The exact-integer contract: no float dtypes, float linear algebra,
    # einsum (whose integer paths are easy to swap for float ones) or
    # rational arithmetic.
    src = Path(delpezzo.__file__).parent
    banned = ("np.linalg", "float64", "float32", "einsum", "Fraction", "fractions")
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for word in banned:
            assert word not in text, f"{path.name} uses {word}"


def test_library_imports_at_module_level():
    # Every import of the package sits at the top of its module, so no
    # function hides an import cycle.
    src = Path(delpezzo.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{node.lineno} imports inside {fn.name}"
                    )
