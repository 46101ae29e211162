import ast
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
