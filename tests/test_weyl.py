import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delpezzo import census, weyl
from delpezzo.errors import InputError, InternalError, ResourceError
from delpezzo.picard import PicardLattice, parse_divisor_list, reflect
from delpezzo.surface import catalog_load, find_configuration
from delpezzo.toric import ToricSystem


def test_group_orders_small():
    assert weyl.group_order(7) == 2
    assert weyl.group_order(6) == 12
    assert weyl.group_order(5) == 120
    assert weyl.group_order(4) == 1920
    assert weyl.group_order(3) == 51840


def test_enumerate_group_verifies():
    elements = list(weyl.enumerate_group(6, verify_all=True))
    assert len(elements) == 12
    ident = weyl.identity_element(PicardLattice.standard(6))
    assert ident in elements
    for el in elements:
        el.verify()


def test_element_apply_matches_matrix():
    for el in itertools.islice(weyl.enumerate_group(5), 20):
        d = (2, -1, 3, 0, 1)
        assert tuple(np.array(el.matrix()) @ np.array(d)) == el.apply(d)


def test_orbit_freeness_degree5():
    lat = PicardLattice.standard(5)
    A0 = ToricSystem(lat, parse_divisor_list(lat, census.TABLE9_SYSTEM_TEXTS[5]))
    systems = list(weyl.orbit_of_toric_system(A0))
    assert len(systems) == 120
    assert len(set(systems)) == 120


def test_pack_rows_injective_on_classes():
    lat = PicardLattice.standard(2)
    for r in (-2, -1):
        arr = np.array(lat.enumerate_classes(r), dtype=np.int64)
        keys = weyl.pack_rows(arr)
        assert len(set(keys.tolist())) == arr.shape[0]


def test_pack_rows_bounds():
    with pytest.raises(InternalError):
        weyl.pack_rows(np.array([[0, 999]], dtype=np.int64))
    with pytest.raises(InternalError):
        weyl.pack_rows(np.array([[-129, 0]], dtype=np.int64))
    with pytest.raises(InternalError):
        weyl.pack_rows(np.zeros((1, 10), dtype=np.int64))


@pytest.mark.parametrize("rank", range(1, 10))
def test_pack_rows_matches_bit_fields(rank):
    # Reference: an 8-bit field for coordinate 0, then 7-bit fields.
    rng = np.random.default_rng(rank)
    arr = rng.integers(-64, 64, size=(200, 3, rank))
    arr[..., 0] = rng.integers(-128, 128, size=(200, 3))
    expected = np.zeros(arr.shape[:-1], dtype=object)
    for i in range(rank):
        bits = 8 if i == 0 else 7
        expected = (expected << bits) + arr[..., i].astype(object) + (1 << (bits - 1))
    assert [int(k) for k in weyl.pack_rows(arr).ravel()] == expected.ravel().tolist()
    assert int(weyl.pack_rows(arr[7, 2])) == expected[7, 2]


@pytest.mark.parametrize("degree", [7, 6, 5, 4])
def test_orbit_layers_match_poincare_and_closure(degree):
    lat = PicardLattice.standard(degree)
    layers = list(weyl.orbit_layers(lat))
    sizes = [layer.markers.shape[0] for layer in layers]
    assert sizes == list(weyl.poincare_coefficients(degree))
    order = census.EXPECTED_WEYL_ORDERS[degree]
    assert math.prod(weyl.INVARIANT_DEGREES[degree]) == order
    # Naive closure of the marker under the simple reflections.
    roots = weyl.simple_reflection_roots(lat)
    closure = {weyl.regular_marker(lat)}
    frontier = list(closure)
    while frontier:
        images = {reflect(lat, m, r) for m in frontier for r in roots} - closure
        closure |= images
        frontier = list(images)
    emitted = [tuple(int(x) for x in row) for layer in layers for row in layer.markers]
    assert len(emitted) == len(set(emitted))
    assert set(emitted) == closure


def test_orbit_memory_budget():
    lat = PicardLattice.standard(3)
    with pytest.raises(ResourceError):
        for _ in weyl.orbit_layers(lat, memory_budget=64):
            pass


def test_checkpoint_resume(tmp_path):
    lat = PicardLattice.standard(4)
    eye = np.eye(lat.rank, dtype=np.int64)
    full = list(weyl.orbit_layers(lat, eye))
    # Truncate at layer 2 with checkpointing, then resume to the end.
    list(weyl.orbit_layers(lat, eye, checkpoint_dir=tmp_path, max_layers=2))
    resumed = list(
        weyl.orbit_layers(lat, eye, checkpoint_dir=tmp_path, resume=True)
    )
    tail = [layer for layer in full if layer.index > 2]
    assert len(resumed) == len(tail)
    for a, b in zip(resumed, tail):
        assert a.index == b.index
        assert np.array_equal(a.markers, b.markers)
        assert np.array_equal(a.payload, b.payload)
    assert resumed[-1].total_so_far == full[-1].total_so_far == 1920


def test_resume_rejects_other_payload(tmp_path):
    lat = PicardLattice.standard(4)
    eye = np.eye(lat.rank, dtype=np.int64)
    list(weyl.orbit_layers(lat, eye, checkpoint_dir=tmp_path, max_layers=2))
    with pytest.raises(InputError):
        list(weyl.orbit_layers(lat, 2 * eye, checkpoint_dir=tmp_path, resume=True))
    with pytest.raises(InputError):
        list(weyl.orbit_layers(lat, checkpoint_dir=tmp_path, resume=True))


def test_resume_rejects_other_degree(tmp_path):
    lat4 = PicardLattice.standard(4)
    list(weyl.orbit_layers(lat4, checkpoint_dir=tmp_path, max_layers=2))
    with pytest.raises(InputError):
        list(
            weyl.orbit_layers(
                PicardLattice.standard(3), checkpoint_dir=tmp_path, resume=True
            )
        )


def test_resume_without_checkpoint():
    lat = PicardLattice.standard(5)
    with pytest.raises(InputError):
        list(weyl.orbit_layers(lat, resume=True))


def test_stabilizers():
    # Empty root set: the whole group.
    assert len(weyl.stabilizer_elements_of_root_set(6, ())) == 12
    roots_7a1 = find_configuration(2, "7A1")
    assert weyl.stabilizer_order_of_root_set(2, roots_7a1) == 168
    s = census.section13_surface()
    assert weyl.stabilizer_order_of_root_set(2, s.simple_roots) == 4
    for el in weyl.stabilizer_elements_of_root_set(2, s.simple_roots):
        el.verify()
        assert frozenset(el.apply(r) for r in s.simple_roots) == frozenset(
            s.simple_roots
        )


def test_integer_rank():
    assert weyl.integer_rank([]) == 0
    assert weyl.integer_rank([[0, 0], [0, 0]]) == 0
    assert weyl.integer_rank([[2, 4], [1, 2]]) == 1
    assert weyl.integer_rank([[0, 3, 1], [0, 6, 2], [5, 1, 1]]) == 2
    assert weyl.integer_rank(np.eye(9, dtype=np.int64) * 7) == 9
    lat = PicardLattice.standard(2)
    assert weyl.spans_lattice_with_k(lat, find_configuration(2, "7A1"))
    assert not weyl.spans_lattice_with_k(lat, find_configuration(2, "6A1"))


def test_stabilizer_small_degree():
    s = catalog_load(5).get("A2")
    elements = weyl.stabilizer_elements_of_root_set(5, s.simple_roots)
    assert weyl.group_order(5) % len(elements) == 0


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_reflection_matrix_is_involution(a, b, c):
    lat = PicardLattice.standard(6)
    root = (0, 1, -1, 0)
    m = weyl.reflection_matrix(lat, root)
    v = np.array([a, b, c, a - b], dtype=np.int64)
    assert np.array_equal(m @ (m @ v), v)
