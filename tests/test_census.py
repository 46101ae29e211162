import numpy as np
import pytest

from delpezzo import census, weyl
from delpezzo.errors import InputError, InternalError
from delpezzo.picard import PicardLattice
from delpezzo.report import Report
from delpezzo.surface import catalog_load
from delpezzo.toric import classify_sequence


def test_presets_validate():
    for name, preset in census.SEQUENCE_PRESETS.items():
        A0 = preset.initial_system()
        assert A0.squares() == preset.squares, name
        kt = classify_sequence(preset.squares)
        assert kt.kind == "second", name


def test_window_plan_iib():
    plan = census._window_plan(census.IIB_DEG2_SQUARES)
    assert int(plan.root_through_n.sum()) == 11
    assert plan.ixa_coeffs.shape[0] == 22
    assert len(plan.deep_windows) == 2
    assert {kl for _row, kl in plan.deep_windows} == {(10, 10), (9, 10)}


@pytest.mark.parametrize("preset", ["IIb-deg2", "VI-deg1"])
def test_window_keys_match_packed_window_sums(preset):
    # Reference: every window sum formed explicitly, packed and looked up.
    A0 = census.SEQUENCE_PRESETS[preset].initial_system()
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    root_keys, _ = census._sorted_classes(lat, -2)
    line_keys, _ = census._sorted_classes(lat, -1)
    rows = 0
    for layer in weyl.orbit_system_arrays(A0, max_layers=6):
        part = layer.payload
        vals2 = np.einsum("wi,mir->mwr", plan.root_coeffs, part)
        valsI = np.einsum("wi,mir->mwr", plan.ixa_coeffs, part)
        idx2, idxI = census._window_classes(lat, plan, part)
        assert np.array_equal(
            idx2, census._lookup(root_keys, weyl.pack_rows(vals2), "root")
        )
        assert np.array_equal(
            idxI, census._lookup(line_keys, weyl.pack_rows(valsI), "line")
        )
        rows += part.shape[0]
    assert rows == sum(weyl.poincare_coefficients(lat.degree)[:7])


def test_window_keys_reject_non_classes():
    A0 = census.section13_system()
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    part = np.array([A0.terms], dtype=np.int64)
    # Sums inside the packing fields that are not classes.
    with pytest.raises(InternalError, match="not a"):
        census._window_classes(lat, plan, 2 * part)
    # Sums that leave the fields, where a key could alias a class.
    with pytest.raises(InternalError, match="packing fields"):
        census._window_classes(lat, plan, 127 * part)


def test_window_plan_rejects_first_kind():
    with pytest.raises(InputError):
        census._window_plan((0, 0, -1, -1, -1))
    with pytest.raises(InputError):
        census._window_plan((-3, -2, -2, -2, -2, -2, -2, -2, -2, -3))


def test_search_counterexamples_validation():
    s = census.section13_surface()
    A0 = census.section13_system()
    with pytest.raises(InputError):
        census.search_counterexamples(s, (0, 0, -1, -1, -1), A0, "strong")
    with pytest.raises(InputError):
        census.census_for_preset("no-such-preset")
    with pytest.raises(InputError):
        census.census_for_preset(A0, modes=("bogus",))


def test_type_label():
    assert census._type_label("X_{2,A1+2A3}") == "A1+2A3"
    assert census._type_label("X_{2}") == "dP"


def test_stabilizer_table_degree2():
    table = census.stabilizer_table(2)
    assert table["X_{2}"] is None
    orders = {
        name: (None if els is None else len(els)) for name, els in table.items()
    }
    assert orders["X_{2,7A1}"] == 168
    assert orders["X_{2,6A1}"] == 48
    assert orders["X_{2,5A1}"] == 32
    assert orders["X_{2,A3+3A1}"] == 4
    assert orders["X_{2,A1+2A3}"] == 4
    assert orders["X_{2,D4+2A1}"] == 4
    assert orders["X_{2,D4+3A1}"] == 6
    assert orders["X_{2,D6+A1}"] == 1


def test_fast_suites_pass():
    assert census.verify_table1().passed
    assert census.verify_table3().passed
    assert census.verify_ixa_counts().passed
    assert census.verify_section13().passed


def test_good_class_suites():
    assert census.verify_good_class_tables().passed
    with pytest.raises(InputError):
        census.verify_good_class_propositions(6)


def test_good_sets():
    s = catalog_load(6).get("A2")
    lat = PicardLattice.standard(6)
    l3 = (1, 0, 0, -1)
    assert census.good_zero_classes(s) == frozenset({l3})
    assert census.is_good_set(s, (l3,))
    dp5 = catalog_load(5).get("dP")
    assert census.good_zero_classes(dp5) == frozenset()
    e6 = catalog_load(3).get("E6")
    assert len(census.good_zero_classes(e6)) == 17


def test_report():
    r = Report("demo")
    assert r.check("a", 1, 1)
    assert not r.check("b", 1, 2)
    r.note("c", "info")
    assert not r.passed
    text = r.render()
    assert "PASS a" in text and "FAIL b" in text and "NOTE c" in text
    ok = Report("ok")
    ok.check_true("x", True)
    assert ok.passed and ok.render().endswith("PASS ok")


def test_expected_weyl_orders_match_table():
    for degree in (7, 6, 5, 4, 3):
        from delpezzo import weyl

        assert census.EXPECTED_WEYL_ORDERS[degree] == weyl.group_order(degree)
