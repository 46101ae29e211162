import hashlib
import itertools

import pytest

from delpezzo.effectivity import is_lo, is_slo
from delpezzo.errors import InputError
from delpezzo.paper import expected_irr_lines
from delpezzo.picard import PicardLattice, parse_divisor_list, vneg
from delpezzo.surface import (
    SurfaceModel,
    catalog_load,
    expected_good_zero_classes,
    find_configuration,
    parse_dynkin_type,
    surface_name,
)

CATALOG_SIZES = {7: 2, 6: 6, 5: 7, 4: 16, 3: 21, 2: 9}


@pytest.mark.parametrize("degree,size", sorted(CATALOG_SIZES.items()))
def test_catalog_sizes(degree, size):
    assert len(catalog_load(degree).entries) == size


def test_catalog_rejects_bad_degree():
    with pytest.raises(InputError):
        catalog_load(0)
    with pytest.raises(InputError):
        catalog_load(8)


def test_get_with_suggestion():
    catalog = catalog_load(3)
    assert catalog.get("E6").name == "X_{3,E6}"
    with pytest.raises(InputError, match="closest match"):
        catalog.get("E7")


def test_surface_name():
    assert surface_name(3, "dP") == "X_{3}"
    assert surface_name(2, "A1+2A3") == "X_{2,A1+2A3}"


@pytest.mark.parametrize("degree", [7, 6, 5, 4, 3])
def test_irr_lines_match_table(degree):
    catalog = catalog_load(degree)
    for s in catalog.entries:
        label = s.name.split(",", 1)[1].rstrip("}") if "," in s.name else "dP"
        expected = expected_irr_lines(degree, label)
        if expected is not None:
            assert tuple(sorted(s.irr_lines_set())) == expected, s.name


def test_effective_root_counts():
    # Positive-root counts of the subsystems: A1 -> 1, A2 -> 3, A3 -> 6,
    # D4 -> 12, D5 -> 20, E6 -> 36.
    cat3 = catalog_load(3)
    assert len(cat3.get("E6").effective_roots_set()) == 36
    assert len(cat3.get("D5").effective_roots_set()) == 20
    assert len(cat3.get("A1+A3").effective_roots_set()) == 7
    cat2 = catalog_load(2)
    assert len(cat2.get("7A1").effective_roots_set()) == 7
    assert len(cat2.get("A1+2A3").effective_roots_set()) == 13
    assert len(cat2.get("D6+A1").effective_roots_set()) == 31


def test_degree2_configurations_have_five_orthogonal_roots():
    # Every census subsystem contains five mutually orthogonal simple roots.
    for s in catalog_load(2).entries:
        if s.is_del_pezzo:
            continue
        roots = s.simple_roots
        lat = s.lattice
        found = False
        for combo in itertools.combinations(range(len(roots)), 5):
            if all(
                lat.intersect(roots[i], roots[j]) == 0
                for i, j in itertools.combinations(combo, 2)
            ):
                found = True
                break
        assert found, s.name


def test_red_lines_partition():
    for s in catalog_load(4).entries:
        lines = set(s.lattice.enumerate_classes(-1))
        assert s.irr_lines_set() | s.red_lines_set() == lines
        assert not s.irr_lines_set() & s.red_lines_set()


def test_lo_slo_on_roots():
    s = catalog_load(3).get("E6")
    lat = s.lattice
    (r,) = parse_divisor_list(lat, "E1-E2")
    # r is an effective root: -r is not effective, so r is lo but not slo.
    assert is_lo(s, r)
    assert not is_slo(s, r)
    assert not is_lo(s, vneg(r))
    # On the genuine del Pezzo no root is effective: every root is slo.
    dp = catalog_load(3).get("dP")
    assert is_slo(dp, r) and is_slo(dp, vneg(r))


def test_lines_are_slo_in_degree_3():
    s = catalog_load(3).get("A1")
    for c in s.lattice.enumerate_classes(-1):
        assert is_slo(s, c)


def test_good_zero_class_table_lookup():
    lat6 = PicardLattice.standard(6)
    assert expected_good_zero_classes(6, "A2") == tuple(
        parse_divisor_list(lat6, "L3")
    )
    assert expected_good_zero_classes(6, "dP") == ()
    assert expected_good_zero_classes(3, "E6") == 17
    assert expected_good_zero_classes(4, "dP") is None


def test_parse_dynkin_type():
    assert parse_dynkin_type("A1+2A3") == (("A", 3), ("A", 3), ("A", 1))
    assert parse_dynkin_type("D4") == (("D", 4),)
    with pytest.raises(InputError):
        parse_dynkin_type("B2")


def test_find_configuration_7A1():
    roots = find_configuration(2, "7A1")
    lat = PicardLattice.standard(2)
    assert len(roots) == 7
    for r1, r2 in itertools.combinations(roots, 2):
        assert lat.intersect(r1, r2) == 0


#: sha256 of repr([(name, simple_roots), ...]) for the degree-1 and -2
#: catalogs, as the search with the orthogonal-roots filter chose them.
CATALOG_ROOT_DIGESTS = {
    1: "b2a6c9b1519ce1849a6e5080edd7b845d58ed619fb0819cf8205648c41ddda19",
    2: "966939e62da6933625b433dfa89d6f52b6c6077e86b0ca16843882add08a6dea",
}


@pytest.mark.parametrize("degree", sorted(CATALOG_ROOT_DIGESTS))
def test_low_degree_catalog_roots_are_pinned(degree):
    rows = [(s.name, s.simple_roots) for s in catalog_load(degree).entries]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == CATALOG_ROOT_DIGESTS[degree]


def test_surface_model_validation():
    lat = PicardLattice.standard(5)
    with pytest.raises(InputError):
        SurfaceModel(lat, ((0, 1, 0, 0, 0),))  # E1 is not a root
