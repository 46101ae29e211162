import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import census, paper, weyl
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
    elements = list(weyl.enumerate_group(6))
    assert len(elements) == 12
    ident = weyl.identity_element(PicardLattice.standard(6))
    assert ident in elements
    images = np.array([el.images for el in elements])
    assert weyl.preserves_form_and_k(ident.lattice, images).all()


def test_element_apply_matches_matrix():
    for el in itertools.islice(weyl.enumerate_group(5), 20):
        d = (2, -1, 3, 0, 1)
        assert tuple(np.array(el.images).T @ np.array(d)) == el.apply(d)


def test_orbit_freeness_degree5():
    lat = PicardLattice.standard(5)
    A0 = ToricSystem(lat, parse_divisor_list(lat, paper.TABLE9_SYSTEM_TEXTS[5]))
    systems = [
        ToricSystem(lat, tuple(map(tuple, row)))
        for layer in weyl.orbit_layers(lat, A0.terms)
        for row in layer.payload.tolist()
    ]
    assert len(systems) == 120
    assert len(set(systems)) == 120


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


def test_orbit_memory_budget(monkeypatch):
    lat = PicardLattice.standard(3)
    monkeypatch.setattr(weyl, "_physical_memory", lambda: 64)
    with pytest.raises(ResourceError, match="physical memory"):
        for _ in weyl.orbit_layers(lat):
            pass


def test_enumerate_group_checks_every_layer(monkeypatch):
    preserves = weyl.preserves_form_and_k
    layers = []

    def broken_on_layer_3(lattice, images):
        ok = preserves(lattice, images)
        layers.append(len(images))
        if len(layers) == 4:
            ok[-1] = False
        return ok

    monkeypatch.setattr(weyl, "preserves_form_and_k", broken_on_layer_3)
    elements = weyl.enumerate_group(5)
    before = sum(weyl.poincare_coefficients(5)[:3])
    assert len(list(itertools.islice(elements, before))) == before
    with pytest.raises(InternalError, match="layer 3"):
        next(elements)
    assert layers == [1, 4, 9, 15]


def test_stabilizers():
    # Empty root set: the whole group.
    assert len(weyl.stabilizer_elements_of_root_set(6, ())) == 12
    roots_7a1 = find_configuration(2, "7A1")
    assert len(weyl.stabilizer_elements_of_root_set(2, roots_7a1)) == 168
    s = census.section13_surface()
    assert len(weyl.stabilizer_elements_of_root_set(2, s.simple_roots)) == 4
    for el in weyl.stabilizer_elements_of_root_set(2, s.simple_roots):
        assert weyl.preserves_form_and_k(el.lattice, np.array(el.images))
        assert frozenset(el.apply(r) for r in s.simple_roots) == frozenset(
            s.simple_roots
        )


def _check_stabilizer(degree, roots, elements):
    lat = PicardLattice.standard(degree)
    target = frozenset(roots)
    for el in elements:
        assert weyl.preserves_form_and_k(lat, np.array(el.images))
        assert frozenset(el.apply(r) for r in roots) == target
    assert weyl.identity_element(lat) in elements
    assert len(set(elements)) == len(elements)
    assert math.prod(weyl.INVARIANT_DEGREES[degree]) % len(elements) == 0


@functools.lru_cache(maxsize=None)
def _group_stack(degree):
    group = np.array([el.images for el in weyl.enumerate_group(degree)], dtype=np.int64)
    group.flags.writeable = False
    return group


def _group_filter(degree, roots):
    """Reference: the elements of W (as basis-image stacks) permuting roots."""
    group = _group_stack(degree)
    arr = np.array(roots, dtype=np.int64)
    # hit[g, i, j]: element g sends root i to root j; a permutation of the
    # roots has exactly one hit in every row and every column.
    hit = ((arr @ group)[:, :, None, :] == arr).all(axis=-1)
    mask = (hit.sum(axis=2) == 1).all(axis=1) & (hit.sum(axis=1) == 1).all(axis=1)
    return {tuple(map(tuple, m)) for m in group[mask].tolist()}


@pytest.mark.parametrize("degree", [6, 5, 4, 3])
def test_stabilizer_search_matches_group_filter(degree):
    group = _group_stack(degree)
    assert len(group) == census.EXPECTED_WEYL_ORDERS[degree]
    assert weyl.preserves_form_and_k(PicardLattice.standard(degree), group).all()
    for s in catalog_load(degree).entries:
        if not s.simple_roots:
            continue
        elements = weyl.stabilizer_elements_of_root_set(degree, s.simple_roots)
        assert {el.images for el in elements} == _group_filter(degree, s.simple_roots)
        _check_stabilizer(degree, s.simple_roots, elements)
        assert weyl.stabilizer_elements_of_root_set(degree, s.simple_roots * 2) == elements


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([6, 5, 4]), st.data())
def test_stabilizer_search_on_random_root_sets(degree, data):
    # Unlike the catalog's simple roots, random sets are often linearly
    # dependent, so mapping the independent ones into R is not enough.
    roots = PicardLattice.standard(degree).enumerate_classes(-2)
    subset = data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=6, unique=True))
    elements = weyl.stabilizer_elements_of_root_set(degree, tuple(subset))
    assert {el.images for el in elements} == _group_filter(degree, subset)
    _check_stabilizer(degree, subset, elements)


def test_stabilizer_orders_degree1():
    for s in catalog_load(1).entries:
        if len(s.simple_roots) >= 5:
            elements = weyl.stabilizer_elements_of_root_set(1, s.simple_roots)
            _check_stabilizer(1, s.simple_roots, elements)


def test_stabilizer_limits_degree1():
    # |W(E8)| = 696,729,600: neither call may walk the group, and the
    # search must stop at its partial-assignment limit.
    lat = PicardLattice.standard(1)
    assert census.EXPECTED_WEYL_ORDERS[1] == 696_729_600
    for roots in ((), lat.enumerate_classes(-2)[:1]):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceError):
                weyl.stabilizer_elements_of_root_set(1, roots)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 128 * 2**20


def test_stabilizer_rejects_non_roots():
    with pytest.raises(InputError):
        weyl.stabilizer_elements_of_root_set(3, ((0, 1, 0, 0, 0, 0, 0),))
    with pytest.raises(InputError):
        weyl.stabilizer_elements_of_root_set(8, ())


def test_verify_rejects_non_isometries():
    lat = PicardLattice.standard(4)
    eye = np.eye(lat.rank, dtype=np.int64)
    assert weyl.preserves_form_and_k(lat, np.array(weyl.identity_element(lat).images))
    sheared = eye.copy()
    sheared[0, 1] = 1  # L -> L + E1
    for images in (-eye, sheared, 2 * eye):
        assert not weyl.preserves_form_and_k(lat, images)


def test_integer_rank():
    assert weyl.integer_rank([]) == 0
    assert weyl.integer_rank([[0, 0], [0, 0]]) == 0
    assert weyl.integer_rank([[2, 4], [1, 2]]) == 1
    assert weyl.integer_rank([[0, 3, 1], [0, 6, 2], [5, 1, 1]]) == 2
    assert weyl.integer_rank(np.eye(9, dtype=np.int64) * 7) == 9
    lat = PicardLattice.standard(2)
    roots = find_configuration(2, "7A1")
    assert weyl.integer_rank(list(roots) + [lat.canonical]) == lat.rank
    roots = find_configuration(2, "6A1")
    assert weyl.integer_rank(list(roots) + [lat.canonical]) != lat.rank


def test_stabilizer_small_degree():
    s = catalog_load(5).get("A2")
    elements = weyl.stabilizer_elements_of_root_set(5, s.simple_roots)
    assert weyl.group_order(5) % len(elements) == 0


def _reflection_matrix(lat, root):
    """M with M @ v = reflect(v, root): the reflected basis vectors as columns."""
    basis = np.eye(lat.rank, dtype=np.int64).tolist()
    return np.array([reflect(lat, tuple(e), root) for e in basis], dtype=np.int64).T


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.sampled_from([np.int8, np.int64]), st.data())
def test_reflect_rows_matches_reflection_matrix(degree, dtype, data):
    lat = PicardLattice.standard(degree)
    # int8 rows take coordinates whose images still fit int8.
    bound = 10 if dtype is np.int8 else 1000
    coords = st.integers(-bound, bound)
    v = np.array(
        data.draw(st.lists(coords, min_size=lat.rank, max_size=lat.rank)), dtype=np.int64
    )
    for i, root in enumerate(weyl.simple_reflection_roots(lat)):
        rows = np.stack([v, -v]).astype(dtype)
        weyl.reflect_rows(rows, i)
        expected = np.stack([v, -v]) @ _reflection_matrix(lat, root).T
        assert rows.dtype == dtype
        assert np.array_equal(rows, expected)


def _orbit_by_matrices(lat, payload0, max_layers=None):
    """Reference walk: the same reverse search with int64 products by the
    reflection matrices."""
    roots = weyl.simple_reflection_roots(lat)
    root_arr = np.array(roots, dtype=np.int64)
    pairing = np.array(lat.gram, dtype=np.int64) @ root_arr.T
    cartan = root_arr @ pairing
    gens_t = [_reflection_matrix(lat, r).T for r in roots]
    markers = np.array([weyl.regular_marker(lat)], dtype=np.int64)
    payload = np.array(payload0, dtype=np.int64)[None]
    index = 0
    while markers.size and (max_layers is None or index <= max_layers):
        yield markers, payload
        pair = markers @ pairing
        child_markers, child_payload = [], []
        for i in range(len(roots)):
            mask = pair[:, i] > 0
            for j in range(i):
                mask &= pair[:, j] + pair[:, i] * cartan[i, j] > 0
            child_markers.append(markers[mask] @ gens_t[i])
            child_payload.append(payload[mask] @ gens_t[i])
        markers, payload = np.concatenate(child_markers), np.concatenate(child_payload)
        index += 1


@pytest.mark.parametrize(
    "source,max_layers",
    [("deg3", None), ("IIb-deg2", 16), ("VI-deg1", 6)],
)
def test_orbit_layers_match_matrix_reference(source, max_layers):
    if source == "deg3":
        lat = PicardLattice.standard(3)
        A0 = ToricSystem(lat, parse_divisor_list(lat, paper.TABLE9_SYSTEM_TEXTS[3]))
    else:
        A0 = census.SEQUENCE_PRESETS[source].initial_system()
    lat = A0.lattice
    layers = list(weyl.orbit_layers(lat, A0.terms, max_layers=max_layers))
    reference = list(_orbit_by_matrices(lat, A0.terms, max_layers))
    assert len(layers) == len(reference)
    for layer, (markers, payload) in zip(layers, reference):
        assert layer.payload.dtype == np.int8
        assert np.array_equal(layer.markers, markers)
        assert np.array_equal(layer.payload, payload)
    if max_layers is None:
        assert layers[-1].total_so_far == census.EXPECTED_WEYL_ORDERS[3]


@pytest.mark.parametrize("name", sorted(census.SEQUENCE_PRESETS))
def test_orbit_dtypes_of_census_presets(name):
    A0 = census.SEQUENCE_PRESETS[name].initial_system()
    lat = A0.lattice
    assert weyl.orbit_bound(lat, A0.terms).max() <= np.iinfo(np.int8).max
    marker_bound = weyl.orbit_bound(lat, [weyl.regular_marker(lat)]).max()
    assert marker_bound == {2: 60, 1: 148}[lat.degree]
    layer = next(weyl.orbit_layers(lat, A0.terms))
    assert layer.payload.dtype == np.int8
    assert layer.markers.dtype == (np.int8 if lat.degree == 2 else np.int16)


def test_full_iib_orbit_within_bound():
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    lat = A0.lattice
    payload_bound = weyl.orbit_bound(lat, A0.terms)
    marker_bound = weyl.orbit_bound(lat, [weyl.regular_marker(lat)])[0]
    top_payload = top_marker = 0
    for layer in weyl.orbit_layers(lat, A0.terms):
        assert (np.abs(layer.payload) <= payload_bound).all()
        assert (np.abs(layer.markers) <= marker_bound).all()
        top_payload = max(top_payload, int(np.abs(layer.payload).max()))
        top_marker = max(top_marker, int(np.abs(layer.markers).max()))
    assert layer.total_so_far == census.EXPECTED_WEYL_ORDERS[2]
    assert (top_payload, top_marker) == (5, 59)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.data())
def test_orbit_bound_holds_on_random_words(degree, data):
    # Random vectors pushed through random words of simple reflections.
    lat = PicardLattice.standard(degree)
    roots = weyl.simple_reflection_roots(lat)
    coords = st.integers(-20, 20)
    v = data.draw(st.lists(coords, min_size=lat.rank, max_size=lat.rank))
    bound = weyl.orbit_bound(lat, [v])[0]
    assert (np.abs(v) <= bound).all()
    for i in data.draw(st.lists(st.integers(0, len(roots) - 1), max_size=40)):
        v = reflect(lat, tuple(v), roots[i])
        assert (np.abs(v) <= bound).all()


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_reflection_matrix_is_involution(a, b, c):
    lat = PicardLattice.standard(6)
    root = (0, 1, -1, 0)
    m = _reflection_matrix(lat, root)
    v = np.array([a, b, c, a - b], dtype=np.int64)
    assert np.array_equal(m @ (m @ v), v)
