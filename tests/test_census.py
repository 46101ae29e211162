import numpy as np
import pytest

from delpezzo import census, weyl
from delpezzo.errors import InputError, InternalError
from delpezzo.effectivity import is_effective
from delpezzo.picard import PicardLattice, vadd, vneg
from delpezzo.report import Report
from delpezzo.surface import catalog_load
from delpezzo.toric import blow_down, classify_sequence


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
    # Reference: every window sum formed explicitly, packed and found by
    # binary search among the sorted class keys.
    A0 = census.SEQUENCE_PRESETS[preset].initial_system()
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    rows = 0
    for layer in weyl.orbit_system_arrays(A0, max_layers=6):
        part = layer.payload
        slots2, slotsI = census._window_classes(lat, plan, part)
        for r, coeffs, slots in (
            (-2, plan.root_coeffs, slots2),
            (-1, plan.ixa_coeffs, slotsI),
        ):
            table = census._class_table(lat, r)
            class_keys = weyl.pack_rows(table.classes)
            order = np.argsort(class_keys)
            sums = np.einsum("wi,mir->mwr", coeffs, part)
            idx = np.searchsorted(class_keys[order], weyl.pack_rows(sums))
            assert np.array_equal(class_keys[order][idx], weyl.pack_rows(sums))
            slot_class = np.full(int(table.modulus), -1)
            slot_class[table.slots] = np.arange(len(table.classes))
            assert (slot_class[slots] >= 0).all()
            assert np.array_equal(slot_class[slots], order[idx])
            assert np.array_equal(table.classes[slot_class[slots]], sums)
        rows += part.shape[0]
    assert rows == sum(weyl.poincare_coefficients(lat.degree)[:7])


#: Residue moduli of the (-2)- and (-1)-class tables, by degree.
CLASS_TABLE_MODULI = {1: (871, 871), 2: (409, 157), 3: (249, 79)}


@pytest.mark.parametrize("degree", [7, 6, 5, 4, 3, 2, 1])
def test_class_table_is_a_bijection(degree):
    lat = PicardLattice.standard(degree)
    for i, r in enumerate((-2, -1)):
        table = census._class_table(lat, r)
        keys = weyl.pack_rows(table.classes)
        p = int(table.modulus)
        assert len(keys) == len(lat.enumerate_classes(r))
        assert np.array_equal(table.slots, keys % table.modulus)
        assert np.unique(table.slots).size == len(keys)
        assert np.array_equal(table.slot_keys[table.slots], keys)
        # An empty slot holds a key of another residue, so nothing matches it.
        empty = np.setdiff1d(np.arange(p), table.slots)
        assert (table.slot_keys[empty] % table.modulus != empty).all()
        # The modulus is the smallest one that separates the keys.
        for q in range(len(keys), p):
            assert np.unique(keys % np.uint64(q)).size < len(keys)
        if degree in CLASS_TABLE_MODULI:
            assert p == CLASS_TABLE_MODULI[degree][i]


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


def _deg3_system(preset: str, term: int):
    """A second-kind degree-3 system: a blow-down of a degree-2 preset."""
    dp2 = catalog_load(2).get("dP")
    _, A0 = blow_down(dp2, census.SEQUENCE_PRESETS[preset].initial_system(), term)
    return A0


def _reference_sweep(A0, surfaces, modes, max_layers):
    """Tests (1)-(4) one row, surface and mode at a time, on window sums
    formed explicitly, with the general effectivity test for (4)."""
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    deep = [np.array(row) for row, _ in plan.deep_windows]
    store = {(s.name, mode): [] for s in surfaces for mode in modes}
    candidates = {f"{s.name}/{mode}": 0 for s in surfaces for mode in modes}
    deep_tests = 0
    for layer in weyl.orbit_system_arrays(A0, max_layers=max_layers):
        for system in layer.payload:
            roots = [tuple(v) for v in (plan.root_coeffs @ system).tolist()]
            lines = [tuple(v) for v in (plan.ixa_coeffs @ system).tolist()]
            for s in surfaces:
                eff = s.effective_roots_set()
                anti = any(vneg(r) in eff for r in roots)
                eff2 = any(
                    r in eff
                    for r, cyclic in zip(roots, plan.root_through_n)
                    if not cyclic
                )
                fail3 = any(
                    c in s.irr_lines_set()
                    or (lat.degree == 1 and vadd(c, lat.canonical) in eff)
                    for c in lines
                )
                for mode in modes:
                    if anti or fail3 or (mode == "strong" and eff2):
                        continue
                    candidates[f"{s.name}/{mode}"] += 1
                    for row in deep:
                        deep_tests += 1
                        if is_effective(s, tuple((-(row @ system)).tolist()))[0]:
                            break
                    else:
                        store[(s.name, mode)].append(system.tolist())
    return store, candidates, deep_tests


_SWEEP_CASES = {
    "VI-deg3-both": (lambda: _deg3_system("VI-deg2", 3), None, census.MODES, 8),
    "VI-deg3-strong-subset": (
        lambda: _deg3_system("VI-deg2", 3),
        ("dP", "A1+A3", "2A2", "2A1+A3", "A5"),
        ("strong",),
        8,
    ),
    "V-deg3-exceptional-subset": (
        lambda: _deg3_system("V-deg2", 3),
        ("A1+2A2", "A5", "3A2", "E6"),
        ("exceptional",),
        8,
    ),
    "IIb-deg2-both": (
        lambda: census.SEQUENCE_PRESETS["IIb-deg2"].initial_system(),
        None,
        census.MODES,
        10,
    ),
}


@pytest.mark.parametrize("batch_rows", [512, 5])
@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_matches_per_row_reference(case, batch_rows, monkeypatch):
    make, pick, modes, layers = _SWEEP_CASES[case]
    A0 = make()
    catalog = catalog_load(A0.lattice.degree)
    surfaces = catalog.entries if pick is None else [catalog.get(x) for x in pick]
    # A small batch bound also exercises the flushes inside a layer.
    monkeypatch.setattr(census, "_DEEP_BATCH_ROWS", batch_rows)
    total, store, stats = census._census_sweep(
        A0, tuple(surfaces), modes, False, {"max_layers": layers}
    )
    ref_store, ref_candidates, ref_deep = _reference_sweep(A0, surfaces, modes, layers)
    assert total == stats["rows"] == sum(
        weyl.poincare_coefficients(A0.lattice.degree)[: layers + 1]
    )
    assert {k: [a.tolist() for a in v] for k, v in store.items()} == ref_store
    assert stats["deep_candidates"] == ref_candidates
    assert stats["deep_tests"] == ref_deep > 0
    assert stats["deep_cross_checks"] == 0


def test_sweep_cross_checks_every_deep_test():
    run = census.census_for_preset(
        _deg3_system("VI-deg2", 3), max_layers=7, finalize=False, test_mode=True
    )
    assert run.stats["deep_tests"] > 0
    assert run.stats["deep_cross_checks"] == run.stats["deep_tests"]


def test_surface_masks_reject_more_than_64_surfaces():
    s = catalog_load(3).get("A1")
    with pytest.raises(InputError, match="64 surfaces"):
        census._surface_masks(s.lattice, (s,) * 65)
