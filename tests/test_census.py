import re
from dataclasses import replace

import numpy as np
import pytest

from delpezzo import census, effectivity, toric, weyl
from delpezzo.errors import InputError, InternalError, ResourceError
from delpezzo.effectivity import is_effective
from delpezzo.picard import PicardLattice, vadd, vneg
from delpezzo.report import Report
from delpezzo.surface import SurfaceModel, catalog_load
from delpezzo.toric import (
    TABLE_CYCLIC_STRONG,
    ToricSystem,
    blow_down,
    classify_sequence,
    compute_IXA_windows,
    cyclic_windows,
    find_system_with_squares,
    is_cyclic_strong_exceptional,
    window_squares,
)

from orbits import orbit_systems, plan_sums_tables


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
    assert plan.deep_coeffs.shape == (2, 10)
    deep = {tuple(row) for row in plan.deep_coeffs.tolist()}
    windows = {
        (k, l)
        for k, l, pos in cyclic_windows(10)
        if tuple(int(p in pos) for p in range(10)) in deep
    }
    assert windows == {(10, 10), (9, 10)}


@pytest.mark.parametrize("preset", ["IIb-deg2", "VI-deg1"])
def test_window_ids_match_window_sums(preset):
    # Reference: every window sum formed explicitly and found by its
    # coordinates among the enumerated classes, or in the deep table's
    # index; the sweep's ids [w, N], carried down the orbit tree from
    # layer 0, must be the positions found.
    A0 = census.SEQUENCE_PRESETS[preset].initial_system()
    lat = A0.lattice
    plan, S0, tables = plan_sums_tables(A0)
    deep_dtype = {"IIb-deg2": np.uint16, "VI-deg1": np.uint32}[preset]
    rows = 0
    ids = None
    for layer, part in orbit_systems(A0, max_layers=6):
        ids = census._layer_ids(S0, tables, layer, ids)
        for r, coeffs, table, got in zip((-2, -1, None), plan.coeffs, tables, ids):
            if r is None:
                position = table.index
                assert got.dtype == deep_dtype
            else:
                position = {c: i for i, c in enumerate(lat.enumerate_classes(r))}
                assert got.dtype == np.uint8
            sums = np.einsum("wi,mir->mwr", coeffs, part)
            idx = [[position[tuple(v)] for v in row] for row in sums.tolist()]
            assert np.array_equal(got.T, np.array(idx).reshape(got.T.shape))
            assert np.array_equal(table.classes[got.T], sums)
        rows += part.shape[0]
    assert rows == sum(weyl.poincare_coefficients(lat.degree)[:7])


@pytest.mark.parametrize("preset", ["VI-deg2", "V-deg2"])
def test_window_ids_match_window_sums_on_whole_orbits(preset, monkeypatch):
    # Every row of a whole degree-3 orbit: the classes of its carried ids
    # are its window sums, in all three tables.  Table rows are distinct,
    # so this pins the ids.  Chunks of 7 rows put chunk bounds inside the
    # generator blocks.
    monkeypatch.setattr(census, "_CHUNK_ROWS", 7)
    A0 = _deg3_system(preset, 3)
    plan, S0, tables = plan_sums_tables(A0)
    assert all(len(t.index) == t.classes.shape[0] for t in tables)
    rows = 0
    ids = None
    for layer, systems in orbit_systems(A0):
        ids = census._layer_ids(S0, tables, layer, ids)
        for table, got, c in zip(tables, ids, plan.coeffs):
            assert np.array_equal(table.classes[got.T], c @ systems)
        rows += systems.shape[0]
    assert rows == census.EXPECTED_WEYL_ORDERS[3]


@pytest.mark.parametrize("degree", [7, 6, 5, 4, 3, 2, 1])
def test_class_table_is_a_bijection(degree):
    # Every perm[i] permutes the class ids, is an involution (s_i^2 = 1)
    # and sends each class to its image under `reflect_rows`: on the
    # (-2)- and (-1)-classes, and on the deep tables of IIb-deg2, VI-deg2
    # and a degree-3 blow-down (the W-orbits of their deep window sums).
    lat = PicardLattice.standard(degree)
    generators = len(weyl.simple_reflection_roots(lat))
    tables = []
    for r in (-2, -1):
        table = census._class_table(lat, lat.enumerate_classes(r))
        count = len(lat.enumerate_classes(r))
        assert table.classes.shape[0] == count
        assert set(map(tuple, table.classes.tolist())) == set(lat.enumerate_classes(r))
        assert table.perm.dtype == np.uint8
        tables.append(table)
    presets = census.SEQUENCE_PRESETS
    deep_sources = {
        2: [presets[p].initial_system() for p in ("IIb-deg2", "VI-deg2")],
        3: [_deg3_system("VI-deg2", 3)],
    }
    for A0 in deep_sources.get(degree, []):
        table = plan_sums_tables(A0)[2][2]
        assert table.perm.dtype == np.min_scalar_type(table.classes.shape[0] - 1)
        assert table.perm.dtype in (np.uint8, np.uint16)
        assert {table.index[tuple(c)] for c in table.classes.tolist()} == set(
            range(table.classes.shape[0])
        )
        tables.append(table)
    assert len(tables) == 2 + len(deep_sources.get(degree, []))
    for table in tables:
        count = table.classes.shape[0]
        assert table.perm.shape == (generators, count)
        for i in range(generators):
            perm = table.perm[i].astype(np.intp)
            assert np.array_equal(np.sort(perm), np.arange(count))
            assert np.array_equal(perm[perm], np.arange(count))
            image = table.classes.copy()
            weyl.reflect_rows(image, i)
            assert np.array_equal(table.classes[perm], image)


def test_window_keys_reject_non_classes():
    # Sums that are no class, small (2 * terms) and large (127 * terms),
    # are refused at the layer-0 lookup.
    A0 = census.section13_system()
    lat = A0.lattice
    plan, S0, tables = plan_sums_tables(A0)
    eye = np.eye(lat.rank, dtype=np.int64)[None]
    marker = np.array([weyl.regular_marker(lat)])
    for factor in (2, 127):
        layer = weyl.OrbitLayer(0, marker, factor * eye, 1)
        with pytest.raises(InternalError, match="not a \\(-2\\)-class"):
            census._layer_ids(S0, tables, layer, None)
    layer = weyl.OrbitLayer(0, marker, eye, 1)
    assert all(ids.shape == (c.shape[0], 1) for ids, c in zip(
        census._layer_ids(S0, tables, layer, None), plan.coeffs
    ))


def test_window_plan_first_kind_and_two_low_entries():
    # A first-kind sequence plans its (-2)-windows alone; "5a" has none.
    for name, roots in (("8a", 4), ("9", 9), ("5a", 0)):
        a = TABLE_CYCLIC_STRONG[name]
        plan = census._window_plan(a)
        assert plan.root_coeffs.shape == (roots, len(a))
        assert roots == window_squares(a).count(-2)
        assert plan.ixa_coeffs.shape == plan.deep_coeffs.shape == (0, len(a))
    with pytest.raises(InputError):
        census._window_plan((-3, -2, -2, -2, -2, -2, -2, -2, -2, -3))


def test_census_for_preset_validation():
    A0 = census.section13_system()
    with pytest.raises(InputError):
        census.census_for_preset("no-such-preset")
    with pytest.raises(InputError):
        census.census_for_preset(A0, modes=("bogus",))


def test_repeated_modes_or_surfaces_are_refused_before_the_sweep(monkeypatch):
    # A repeated mode or surface once doubled the raw counts (276 for 138
    # on X_{2,7A1}) and ended the finalize in an InternalError.
    def no_walk(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(weyl, "orbit_layers", no_walk)
    s = census.section13_surface()
    for surfaces, modes, match in (
        ((s,), ("strong", "strong"), "repeated mode"),
        ((s, s), ("strong",), "repeated surface"),
        # An empty mode tuple once walked the orbit and returned nothing.
        ((s,), (), "needs one or more modes"),
        ((), ("strong",), "needs one or more surface names"),
    ):
        with pytest.raises(InputError, match=match):
            census.census_for_preset(
                "IIb-deg2", surfaces, modes, max_layers=16, finalize=False
            )


def test_mismatched_modes_are_refused_before_the_walk(monkeypatch, tmp_path):
    # cyclic-strong takes a first-kind A0 and neither finalize nor a
    # checkpoint; strong and exceptional take a second-kind A0.
    first = find_system_with_squares(PicardLattice.standard(7), (0, 0, -1, -1, -1))

    def no_walk(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(weyl, "orbit_layers", no_walk)
    for A0, modes, kwargs, match in (
        ("IIb-deg2", ("cyclic-strong",), {}, "first kind"),
        ("IIb-deg2", ("strong", "cyclic-strong"), {}, "first kind"),
        (first, ("strong",), {}, "second kind"),
        (first, ("exceptional",), {}, "second kind"),
        (first, ("cyclic-strong",), {"finalize": True}, "nothing to finalize"),
        (first, ("cyclic-strong",), {"checkpoint_dir": tmp_path}, "checkpoint"),
    ):
        with pytest.raises(InputError, match=match):
            census.census_for_preset(A0, modes=modes, **{"finalize": False, **kwargs})


#: The sweep's work counts in `CensusRun.stats`: no timers, and nothing
#: that the warm effectivity memo of a second run changes.
SWEEP_COUNTS = (
    "rows", "live_rows", "deep_tests", "deep_candidates", "deep_verdicts",
    "deep_kernel_calls",
)


@pytest.mark.parametrize(
    "squares, modes",
    [
        ((-2, -1, -1, 0, -2, -2, -2, -1, -4), census.MODES),
        ((0, 1, -1, -2, -1, -3), census.MODES),
        (TABLE_CYCLIC_STRONG["8a"], ("cyclic-strong",)),
    ],
)
def test_a_sequence_runs_as_the_system_found_for_it(squares, modes):
    # A squares sequence is a census input: the census realizes it as the
    # system `find_system_with_squares` finds and runs as on that system.
    A0 = find_system_with_squares(PicardLattice.standard(12 - len(squares)), squares)
    finalize = modes == census.MODES
    by_sequence, by_system = (
        census.census_for_preset(start, modes=modes, finalize=finalize)
        for start in (list(squares), A0)
    )
    assert by_sequence.squares == squares
    assert by_sequence.raw_counts == by_system.raw_counts
    assert by_sequence.records == by_system.records
    assert [by_sequence.stats[k] for k in SWEEP_COUNTS] == [
        by_system.stats[k] for k in SWEEP_COUNTS
    ]


def test_a_sequence_is_refused_before_the_search(monkeypatch):
    # In order: entries that are not integers; not admissible; the entry
    # below -2 not last, with the rotation named; a mode that its kind does
    # not take.  The non-admissible case also has its entry below -2 not
    # last, and the IV-deg1 rotation comes in a mode it does not take.
    def no_search(*args):
        raise AssertionError("searched for a system")

    monkeypatch.setattr(census, "find_system_with_squares", no_search)
    rotate_iib = r"rotate \(-2, -2, -2, -1, -2, -2, -1, -2, -3, -1\) left by 9"
    for squares, modes, match in (
        ([0, 0, -1, -1, -1.5], census.MODES, "integer list"),
        ([0, 0, -1, -1, True], census.MODES, "integer list"),
        ({"a": 1}, census.MODES, "integer list"),
        (5, census.MODES, "integer list"),
        ([-1, -2, -2, -2, -1, -2, -2, -1, -3, -2], census.MODES, "not an admissible"),
        ([-2, -2, -2, -1, -2, -2, -1, -2, -3, -1], census.MODES, rotate_iib),
        ([-7, -2, 0, 1, -2, -2, -2, -2, -2, -2, -1], ("cyclic-strong",), "rotate"),
        ([0, 0, -1, -1, -1], census.MODES, "second kind"),
        ((-2, -1, -1, 0, -2, -2, -2, -1, -4), ("cyclic-strong",), "first kind"),
    ):
        with pytest.raises(InputError, match=match):
            census.census_for_preset(squares, modes=modes, finalize=False)


def test_the_search_refuses_what_it_cannot_realize(monkeypatch):
    # An entry outside -2..1 other than the one below -2 is refused before
    # any candidate is enumerated; a sequence that no system realizes is
    # refused after the search.
    def no_candidates(*args):
        raise AssertionError("enumerated candidates")

    monkeypatch.setattr(toric, "class_tuples", no_candidates)
    with pytest.raises(InputError, match="except the one below -2 must lie in -2..1"):
        census.census_for_preset([-2, -1, -2, 2, 0, -3])
    monkeypatch.setattr(census, "find_system_with_squares", lambda lattice, a: None)
    with pytest.raises(InputError, match=r"no toric system realizes the squares \(0, 1,"):
        census.census_for_preset([0, 1, -1, -2, -1, -3])


def test_truncated_finalize_is_rejected_before_the_sweep(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(weyl, "orbit_layers", no_walk)
    with pytest.raises(InputError, match="truncated"):
        census.census_for_preset("IIb-deg2", max_layers=3)


def test_stabilizer_order_must_divide_the_group_order(monkeypatch):
    a1, dp = catalog_load(3).get("A1"), catalog_load(3).get("dP")
    elements = census.stabilizer_elements(3, a1.simple_roots)
    assert census._stabilizer_order(a1) == len(elements) == 720
    assert census._stabilizer_order(dp) == 51840
    # 7 does not divide |W(E6)| = 51840.
    monkeypatch.setattr(census, "stabilizer_elements", lambda degree, roots: elements[:7])
    with pytest.raises(InternalError, match="does not divide"):
        census._stabilizer_order(SurfaceModel(a1.lattice, a1.simple_roots, "X"))


def test_finalize_finds_stabilizers_by_roots_not_by_name():
    # A renamed copy of a catalog surface gets the catalog surface's records.
    lat = PicardLattice.standard(6)
    A0 = find_system_with_squares(lat, (-1, -2, -1, 1, 0, -3))
    a2 = catalog_load(6).get("A2")
    copy = SurfaceModel(lat, a2.simple_roots, "my A2")
    runs = [census.census_for_preset(A0, surfaces=(s,)) for s in (a2, copy)]
    for mode in census.MODES:
        record, renamed = (run.records[(s.name, mode)] for run, s in zip(runs, (a2, copy)))
        assert renamed.stabilizer_order == record.stabilizer_order == 2
        assert replace(renamed, surface=a2.name) == record


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
    formed explicitly, with the general effectivity test for (4).  A row
    is live when it passes tests (1) and (3) on some surface."""
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    deep = list(plan.deep_coeffs)
    store = {(s.name, mode): [] for s in surfaces for mode in modes}
    candidates = {f"{s.name}/{mode}": 0 for s in surfaces for mode in modes}
    deep_tests = live_rows = 0
    for _, systems in orbit_systems(A0, max_layers=max_layers):
        for system in systems:
            live = False
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
                live = live or not (anti or fail3)
                for mode in modes:
                    if anti or fail3 or (mode == "strong" and eff2):
                        continue
                    candidates[f"{s.name}/{mode}"] += 1
                    for row in deep:
                        deep_tests += 1
                        if is_effective(s, tuple((-(row @ system)).tolist())):
                            break
                    else:
                        store[(s.name, mode)].append(system.tolist())
            live_rows += live
    return store, candidates, deep_tests, live_rows


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
    # Squares ending in -3: no row passes tests (1) and (3) anywhere.
    "VI-deg3-no-live-rows": (lambda: _deg3_system("VI-deg2", 9), None, census.MODES, 8),
    "IIb-deg2-both": (
        lambda: census.SEQUENCE_PRESETS["IIb-deg2"].initial_system(),
        None,
        census.MODES,
        10,
    ),
    # Degree 1: the reference keeps test (3)'s old slo clause.
    "VI-deg1-both": (
        lambda: census.SEQUENCE_PRESETS["VI-deg1"].initial_system(),
        None,
        census.MODES,
        8,
    ),
}


@pytest.mark.parametrize("batch_rows", [512, 5])
@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_matches_per_row_reference(case, batch_rows, monkeypatch):
    make, pick, modes, layers = _SWEEP_CASES[case]
    A0 = make()
    catalog = catalog_load(A0.lattice.degree)
    surfaces = catalog.entries if pick is None else [catalog.get(x) for x in pick]
    # A small chunk bound also exercises the chunk boundaries inside a
    # layer, both in carrying the window ids and in the sweep's tests.
    monkeypatch.setattr(census, "_CHUNK_ROWS", batch_rows)
    total, _, store, stats = census._census_sweep(A0, tuple(surfaces), modes, layers)
    ref = _reference_sweep(A0, surfaces, modes, layers)
    ref_store, ref_candidates, ref_deep, ref_live = ref
    assert total == stats["rows"] == sum(
        weyl.poincare_coefficients(A0.lattice.degree)[: layers + 1]
    )
    assert {k: [r for b in v for r in b.tolist()] for k, v in store.items()} == ref_store
    assert stats["deep_candidates"] == ref_candidates
    assert stats["deep_tests"] == ref_deep
    assert stats["live_rows"] == ref_live
    # Only the no-live-rows case has no candidate and so no deep test.
    assert (ref_deep > 0) == (ref_live > 0) == (case != "VI-deg3-no-live-rows")


def test_benchmark_work_counts_are_pinned():
    # Orbit invariants that the benchmark checks as well: the deep tests of
    # the three degree-3 blow-downs and of the IIb-deg2 prefix.  Beside
    # them, the (deep class, surface) pairs the kernel evaluates: only those
    # a candidate reaches, out of 4,536, 13,608, 22,680 and 5,184.
    for preset, term, deep, verdicts in (
        ("VI-deg2", 9, 0, 0),
        ("VI-deg2", 3, 13_324, 2_005),
        ("V-deg2", 3, 9_434, 1_724),
    ):
        run = census.census_for_preset(_deg3_system(preset, term))
        assert run.stats["deep_tests"] == deep, (preset, term)
        assert run.stats["deep_verdicts"] == verdicts, (preset, term)
        assert not any(run.raw_counts.values())
    run = census.census_for_preset("IIb-deg2", max_layers=16, finalize=False)
    assert run.stats["rows"] == 109_466
    assert run.stats["deep_tests"] == 1_080
    assert run.stats["deep_verdicts"] == 61
    assert sum(run.raw_counts.values()) == 540


def _cyclic_strong_run(a: tuple[int, ...], **kwargs):
    A0 = find_system_with_squares(PicardLattice.standard(12 - len(a)), a)
    return A0, census.census_for_preset(
        A0, modes=("cyclic-strong",), finalize=False, **kwargs
    )


def test_window_kinds_without_windows():
    # A first-kind plan has no deep windows, and "6a" no (-2)-windows
    # either: an empty class table, empty masks and empty id arrays.
    lat = PicardLattice.standard(6)
    empty = census._class_table(lat, ())
    assert empty.classes.shape == (0, lat.rank)
    assert empty.perm.shape == (3, 0) and empty.perm.dtype == np.uint8
    assert census._bits([], 6).shape == (0,)
    A0, run = _cyclic_strong_run(TABLE_CYCLIC_STRONG["6a"])
    assert all(c.shape == (0, 6) for c in census._window_plan(A0.squares()).coeffs)
    assert run.raw_counts == {
        (s.name, "cyclic-strong"): 12 for s in catalog_load(6).entries
    }


def _degree_7_to_5_sequences():
    """Table 3's sequences of lengths 5-7, each also rotated to end in -2
    where it has a -2: the printed rows end in -1, 0 or 1, so only the
    rotations have (-2)-windows through position n."""
    for name, a in sorted(TABLE_CYCLIC_STRONG.items()):
        if 5 <= len(a) <= 7:
            yield pytest.param(a, id=name)
            if -2 in a:
                k = a.index(-2) + 1
                yield pytest.param(a[k:] + a[:k], id=f"{name}-rotated")


@pytest.mark.parametrize("a", _degree_7_to_5_sequences())
def test_cyclic_strong_counts_match_the_definition(a):
    # Per surface, the census counts the orbit systems on which every
    # cyclic window is slo (the reference checker, not the criterion).
    A0, run = _cyclic_strong_run(a)
    lat = A0.lattice
    systems = [
        ToricSystem(lat, tuple(map(tuple, row)))
        for _, rows in orbit_systems(A0)
        for row in rows.tolist()
    ]
    assert run.orbit_total == len(systems) == census.EXPECTED_WEYL_ORDERS[lat.degree]
    for s in catalog_load(lat.degree).entries:
        expected = sum(
            is_cyclic_strong_exceptional(s, A).ok for A in systems
        )
        assert run.raw_counts[(s.name, "cyclic-strong")] == expected, s.name


def test_cyclic_strong_counts_are_pinned():
    table10_deg3 = ("A3", "A1+A3", "A4", "D4", "2A1+A3", "A1+A4", "A5", "D5", "A1+A5", "E6")
    pinned = {
        "8a": {"X_{4}": 1920, "X_{4,A1}": 1536, "X_{4,A3,4}": 768}
        | {f"X_{{4,{t}}}": 0 for t in ("A3,5", "A4", "D4", "D5")},
        "9": {"X_{3}": 51840, "X_{3,A1}": 38880, "X_{3,3A2}": 15552}
        | {f"X_{{3,{t}}}": 0 for t in table10_deg3},
    }
    for name, counts in pinned.items():
        _, run = _cyclic_strong_run(TABLE_CYCLIC_STRONG[name])
        for surface, count in counts.items():
            assert run.raw_counts[(surface, "cyclic-strong")] == count, surface


def test_orbit_memory_check_counts_the_census_ids(monkeypatch):
    # The least limit that lets the bare walk of W through layer 3, read
    # off its own ResourceError messages, is too small for the census,
    # which also holds two layers of window class ids: the census is
    # refused at layer 3.
    A0 = _deg3_system("VI-deg2", 3)
    limit = 0
    monkeypatch.setattr(weyl, "_physical_memory", lambda: limit)
    while True:
        try:
            for _ in weyl.orbit_layers(A0.lattice, max_layers=3):
                pass
            break
        except ResourceError as exc:
            limit = int(re.search(r"needs ~(\d+) bytes", str(exc)).group(1))
    assert limit > 0
    with pytest.raises(ResourceError, match="orbit layer 3 needs"):
        census.census_for_preset(A0, max_layers=3, finalize=False)


@pytest.mark.parametrize("preset", ["VI-deg2", "V-deg2"])
def test_deep_tables_match_the_general_decider(preset):
    # Every (deep class, surface) pair of a degree-3 blow-down's deep
    # table, in one anti-class kernel call, against `is_effective`.  A
    # 6-layer census evaluates only the pairs some candidate reaches.
    A0 = _deg3_system(preset, 3)
    surfaces = catalog_load(3).entries
    deep = plan_sums_tables(A0)[2][2]
    anti = np.repeat(-deep.classes, len(surfaces), axis=0)
    which = np.tile(np.arange(len(surfaces)), deep.classes.shape[0])
    stacks = effectivity.root_stacks(surfaces)
    fast = effectivity.anticlass_effective(stacks, anti, which).tolist()
    pairs = {"VI-deg2": 648 * 21, "V-deg2": 1_080 * 21}[preset]
    assert len(fast) == pairs
    assert fast == [
        is_effective(surfaces[t], tuple(d))
        for d, t in zip(anti.tolist(), which.tolist())
    ]
    assert 0 < sum(fast) < pairs
    run = census.census_for_preset(A0, max_layers=6, finalize=False)
    assert 0 < run.stats["deep_verdicts"] < pairs


def test_surfaces_on_another_lattice_are_refused_before_the_walk(monkeypatch):
    # A degree-5 cyclic-strong census over the degree-4 catalog once counted
    # 120 systems on every surface; the second-kind modes failed only in the
    # anti-class kernel's shape check.
    def no_walk(*args, **kwargs):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(weyl, "orbit_layers", no_walk)
    first = find_system_with_squares(
        PicardLattice.standard(5), TABLE_CYCLIC_STRONG["7a"]
    )
    deg4 = catalog_load(4).entries
    deg3 = catalog_load(3).entries
    for A0, surfaces, modes, name in (
        (first, deg4, ("cyclic-strong",), "X_{4}"),
        ("IIb-deg2", deg3[:2], census.MODES, "X_{3}"),
        ("IIb-deg2", (census.section13_surface(), deg3[-1]), ("strong",), "X_{3,E6}"),
    ):
        with pytest.raises(InputError, match=re.escape(f"surface {name} is not on")):
            census.census_for_preset(A0, surfaces, modes, finalize=False)


def test_surface_masks_reject_more_than_64_surfaces():
    s = catalog_load(3).get("A1")
    with pytest.raises(InputError, match="64 surfaces"):
        census._surface_masks(s.lattice, (s,) * 65)


def test_masks_take_the_narrowest_dtype():
    # One bit per surface in the narrowest unsigned dtype, up to 64 bits.
    s = catalog_load(3).get("A1")
    for count, dtype in (
        (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
        (32, np.uint32), (33, np.uint64), (64, np.uint64),
    ):
        assert census._bits([[True] * count], count).dtype == dtype
        masks = census._surface_masks(s.lattice, (s,) * count)
        for mask in (masks.root_anti, masks.root_eff, masks.line_fail):
            assert mask.dtype == dtype
    bits = census._bits(np.eye(64, dtype=bool), 64)
    assert bits[63] == 1 << 63
    assert np.bitwise_or.reduce(bits) == (1 << 64) - 1


def test_census_keeps_bit_63():
    # 64 renamed copies of the degree-2 surfaces, the last one on bit 63:
    # each copy counts what its original counts alone.
    entries = catalog_load(2).entries
    picked = [entries[k % len(entries)] for k in range(63)]
    picked.append(census.section13_surface())
    copies = [replace(s, name=f"{s.name}#{k}") for k, s in enumerate(picked)]
    kwargs = dict(finalize=False, max_layers=16)
    alone = census.census_for_preset("IIb-deg2", entries, **kwargs)
    run = census.census_for_preset("IIb-deg2", copies, **kwargs)
    assert run.raw_counts[(copies[63].name, "strong")] > 0
    for copy, s in zip(copies, picked):
        for mode in census.MODES:
            assert run.raw_counts[(copy.name, mode)] == alone.raw_counts[(s.name, mode)]
            key = f"{{}}/{mode}"
            assert (
                run.stats["deep_candidates"][key.format(copy.name)]
                == alone.stats["deep_candidates"][key.format(s.name)]
            )


@pytest.mark.parametrize("degree", [1, 2])
def test_line_masks_are_irreducible_membership(degree):
    # Test (3)'s (-1)-class masks are I^red membership alone.
    surfaces = catalog_load(degree).entries
    lat = surfaces[0].lattice
    table = census._class_table(lat, lat.enumerate_classes(-1))
    lines = list(map(tuple, table.classes.tolist()))
    masks = census._surface_masks(lat, surfaces)
    irr = census._bits(
        [[c in s.irr_lines_set() for s in surfaces] for c in lines], len(surfaces)
    )
    assert masks.line_fail.tolist() == irr.tolist()
    if degree != 1:
        return
    # The degree-1 rule they once had, irreducible or C + K effective, is
    # irr | root_anti of the root -K - C: test (1)'s bits.
    old = [
        [
            c in s.irr_lines_set()
            or vadd(c, lat.canonical) in s.effective_roots_set()
            for s in surfaces
        ]
        for c in lines
    ]
    roots = census._class_table(lat, lat.enumerate_classes(-2)).index
    dual = np.array([roots[vneg(vadd(c, lat.canonical))] for c in lines])
    old_bits = census._bits(old, len(surfaces))
    assert old_bits.tolist() == (irr | masks.root_anti[dual]).tolist()
    assert (masks.root_anti[dual] & ~irr).any()
    # That root is a window of the system: the complement of every I(X,A)
    # window, -K minus it, is a cyclic (-2)-window.
    presets = [p for p in census.SEQUENCE_PRESETS.values() if p.degree == 1]
    assert len(presets) == 8
    for preset in presets:
        plan = census._window_plan(preset.squares)
        cyclic = set(map(tuple, plan.root_coeffs[plan.root_through_n].tolist()))
        complements = set(map(tuple, (1 - plan.ixa_coeffs).tolist()))
        assert complements and complements <= cyclic, preset.name


def _corrupt_table(monkeypatch, r, corrupt):
    """Make `census._class_table(lat, lat.enumerate_classes(r))` return a
    table whose perm is `corrupt(perm)`."""
    real = census._class_table

    def table(lattice, seeds):
        t = real(lattice, seeds)
        if seeds != lattice.enumerate_classes(r):
            return t
        return census._ClassTable(t.classes, t.index, corrupt(t.perm.copy()))

    monkeypatch.setattr(census, "_class_table", table)


def test_block_audit_compares_one_row_per_generator_block():
    # After layer 0 the carried ids are checked against the window sums on
    # the first row of each non-empty generator block alone: a wrong id
    # there is caught, one on the other rows is not (their exactness is
    # the induction's, which the whole-orbit and whole-table tests check).
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    _, S0, tables = plan_sums_tables(A0)
    *earlier, layer = weyl.orbit_layers(A0.lattice, max_layers=4)
    ids = None
    for before in earlier:
        ids = census._layer_ids(S0, tables, before, ids)
    blocks = layer.blocks
    firsts = blocks[:-1][np.diff(blocks) > 0]
    generators = len(weyl.simple_reflection_roots(A0.lattice))
    assert 1 <= firsts.size <= generators
    audited = set(layer.parents[firsts].tolist())
    unaudited = [p for p in layer.parents.tolist() if p not in audited]
    right = census._layer_ids(S0, tables, layer, ids)
    for parent, caught in ((layer.parents[firsts[0]], True), (unaudited[0], False)):
        wrong = tuple(x.copy() for x in ids)
        wrong[1][:, parent] = (wrong[1][:, parent] + 1) % tables[1].classes.shape[0]
        if caught:
            with pytest.raises(InternalError, match="propagated window class ids differ"):
                census._layer_ids(S0, tables, layer, wrong)
        else:
            got = census._layer_ids(S0, tables, layer, wrong)
            assert not np.array_equal(got[1], right[1])


def test_corrupted_reflection_table_is_caught(monkeypatch):
    # Every id wrong: the block audit catches it.  A table wrong on a few
    # classes only is `test_class_table_is_a_bijection`'s to catch.
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    _corrupt_table(monkeypatch, -1, lambda perm: (perm + 1) % perm.shape[1])
    with pytest.raises(InternalError, match="propagated window class ids differ"):
        census.census_for_preset(A0, max_layers=2, finalize=False)


def test_resumed_census_keeps_counterexamples(tmp_path):
    # Truncated at layer 8 with a checkpoint, then resumed to 16: the
    # resumed run starts from the saved counterexamples and ends with the
    # raw counts of the uninterrupted prefix (540 in all).
    kwargs = dict(finalize=False, checkpoint_dir=tmp_path)
    truncated = census.census_for_preset("IIb-deg2", **kwargs, max_layers=8)
    resumed = census.census_for_preset("IIb-deg2", **kwargs, resume=True, max_layers=16)
    fresh = census.census_for_preset("IIb-deg2", finalize=False, max_layers=16)
    assert sum(fresh.raw_counts.values()) == 540
    assert 0 < sum(truncated.raw_counts.values()) < 540
    assert resumed.raw_counts == fresh.raw_counts
    assert resumed.orbit_total == fresh.orbit_total
    # The orbit is walked again, but only the layers after 8 are tested.
    assert resumed.stats["rows"] == fresh.stats["rows"]
    assert 0 < resumed.stats["deep_tests"] < fresh.stats["deep_tests"]


def test_checkpoint_is_written_at_flushes(tmp_path, monkeypatch):
    # The checkpoint is written when test (4) runs on the held live rows,
    # not after every layer; the last write records the last tested layer.
    writes = []
    save = census._save_checkpoint

    def counting(directory, config, index, store, like):
        writes.append(index)
        save(directory, config, index, store, like)

    monkeypatch.setattr(census, "_save_checkpoint", counting)
    run = census.census_for_preset(
        "IIb-deg2", finalize=False, checkpoint_dir=tmp_path, max_layers=8
    )
    assert 0 < len(writes) < 9  # layers 0-8 are tested
    assert writes == sorted(writes) and writes[-1] == 8
    with np.load(tmp_path / "census.npz") as data:
        assert int(data["layer"]) == 8
        assert int(data["counts"].sum()) == sum(run.raw_counts.values()) > 0


def test_resumed_census_finalizes_like_uninterrupted(tmp_path):
    surfaces = (catalog_load(2).get("A1+2A3"),)
    census.census_for_preset(
        "IIb-deg2", surfaces, finalize=False, checkpoint_dir=tmp_path, max_layers=8
    )
    resumed = census.census_for_preset(
        "IIb-deg2", surfaces, checkpoint_dir=tmp_path, resume=True
    )
    fresh = census.census_for_preset("IIb-deg2", surfaces)
    assert resumed.raw_counts == fresh.raw_counts
    assert resumed.records == fresh.records
    assert {r.essentially_different_count for r in fresh.records.values()} == {72}


def test_resume_rejects_other_configuration(tmp_path, monkeypatch):
    surfaces = catalog_load(2).entries[:2]
    census.census_for_preset(
        "IIb-deg2", surfaces, finalize=False, checkpoint_dir=tmp_path, max_layers=2
    )
    kwargs = dict(finalize=False, checkpoint_dir=tmp_path, resume=True)
    for preset, others, modes, what in (
        ("VI-deg2", surfaces, census.MODES, "terms"),
        ("IIb-deg2", surfaces[:1], census.MODES, "surfaces"),
        ("IIb-deg2", surfaces, ("strong",), "modes"),
    ):
        with pytest.raises(InputError, match=f"written for other {what}"):
            census.census_for_preset(preset, others, modes, **kwargs)
    with pytest.raises(InputError, match="past max_layers"):
        census.census_for_preset("IIb-deg2", surfaces, **kwargs, max_layers=1)
    # The configuration that wrote it resumes; another package version not.
    census.census_for_preset("IIb-deg2", surfaces, **kwargs, max_layers=3)
    monkeypatch.setattr(census, "__version__", "0.0.0")
    with pytest.raises(InputError, match="written for other version"):
        census.census_for_preset("IIb-deg2", surfaces, **kwargs)


def test_resume_without_checkpoint(tmp_path):
    kwargs = dict(finalize=False, checkpoint_dir=tmp_path, resume=True)
    with pytest.raises(InputError, match="no readable census checkpoint"):
        census.census_for_preset("IIb-deg2", **kwargs)
    (tmp_path / "census.npz").write_bytes(b"not a checkpoint")
    with pytest.raises(InputError, match="no readable census checkpoint"):
        census.census_for_preset("IIb-deg2", **kwargs)
    with pytest.raises(InputError, match="requires a checkpoint directory"):
        census.census_for_preset("IIb-deg2", finalize=False, resume=True)


def test_census_stats_phase_keys():
    # The kernel runs once per flush, which comes once 4,096 live rows are
    # held and after the last layer: two calls for each degree-3 blow-down
    # of the benchmark with live rows, one for the IIb-deg2 prefix.
    runs = [
        census.census_for_preset(_deg3_system(preset, term))
        for preset, term in (("VI-deg2", 9), ("VI-deg2", 3), ("V-deg2", 3))
    ]
    assert runs[0].stats["live_rows"] == 0
    assert [r.stats["deep_kernel_calls"] for r in runs] == [0, 2, 2]
    prefix = census.census_for_preset("IIb-deg2", max_layers=16, finalize=False)
    assert prefix.stats["deep_kernel_calls"] == 1
    run = runs[1]
    timers = census.SWEEP_TIMERS + ("canonicalize_s", "reverify_s")
    assert set(timers) | {"representatives_verified"} <= set(run.stats)
    assert all(isinstance(run.stats[k], float) and run.stats[k] >= 0 for k in timers)
    assert all(run.stats[k] > 0 for k in census.SWEEP_TIMERS)
    # Degree 3 has no counterexample, so finalize verifies none.
    assert run.stats["representatives_verified"] == 0
    assert run.stats["reverify_windows"] == run.stats["reverify_decisions"] == 0
    assert run.stats["rows"] == census.EXPECTED_WEYL_ORDERS[3]


def test_finalize_counts_verified_representatives(iib_run):
    reps = sum(len(r.representatives) for r in iib_run.records.values())
    assert iib_run.stats["representatives_verified"] == reps > 0
    assert iib_run.stats["canonicalize_s"] > 0 and iib_run.stats["reverify_s"] > 0
    # 45 non-cyclic and 22 I(X,A) windows per representative, and one or
    # two hole windows; far fewer classes than windows are decided.
    assert iib_run.stats["reverify_windows"] == 71_124
    assert 0 < iib_run.stats["reverify_decisions"] < 71_124 // 10


def test_reverification_decides_each_class_once(monkeypatch):
    # On a fresh memo the first verification decides classes; a second one,
    # on a surface with the same simple roots under another name, decides
    # none.  A representative that fails the checker on another surface
    # still raises on the warm memo, that surface named like the first.
    monkeypatch.setattr(effectivity, "_MEMO", {})
    s, A = census.section13_surface(), census.section13_system()
    windows = 45 + len(compute_IXA_windows(A.squares())) + 1  # -A_10 is a hole
    other = replace(catalog_load(2).get("7A1"), name=s.name)
    for mode in census.MODES:
        assert census._verify_representatives(s, mode, (A,)) == windows
        decided = effectivity.decided()
        assert decided > 0
        renamed = replace(s, name="renamed")
        assert census._verify_representatives(renamed, mode, (A, A)) == 2 * windows
        assert effectivity.decided() == decided
        with pytest.raises(InternalError, match=f"fails the reference {mode} checker"):
            census._verify_representatives(other, mode, (A,))


def _canonicalize_by_minimum(lattice, arrays, elements):
    """Reference: every row mapped by every stabilizer element (N x |Stab|
    images), each row's least image bytes its key, one key per orbit."""
    total = len(arrays)
    stack = np.stack(arrays)
    canonical = None
    for el in elements:
        images = np.array(el.images, dtype=np.int64)  # v -> v @ images
        t = np.ascontiguousarray(stack @ images).reshape(total, -1)
        kb = [row.tobytes() for row in t]
        canonical = kb if canonical is None else [
            min(x, y) for x, y in zip(canonical, kb)
        ]
    assert len(set(canonical)) * len(elements) == total
    n, rank = arrays[0].shape
    reps = []
    for key in sorted(set(canonical)):
        rep = np.frombuffer(key, dtype=np.int64).reshape(n, rank)
        reps.append(ToricSystem(lattice, tuple(tuple(int(x) for x in t) for t in rep)))
    return tuple(reps)


def test_canonicalize_one_orbit_at_a_time_matches_minimum():
    # A few IIb orbit rows, closed under the 168-element stabilizer of
    # X_{2,7A1}, then shuffled: the representatives, and their order, are
    # those of the N x |Stab| minimum.
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    lat = A0.lattice
    elements = census.stabilizer_table(2)["X_{2,7A1}"]
    assert len(elements) == 168
    _, systems = list(orbit_systems(A0, max_layers=4))[-1]
    group = np.array([el.images for el in elements], dtype=np.int64)
    closed = {
        image.tobytes(): image
        for row in systems[[0, 5, 10]]
        for image in row @ group
    }
    values = list(closed.values())
    rows = [values[i] for i in np.random.default_rng(12).permutation(len(values))]
    assert len(rows) % 168 == 0 and len(rows) > 168
    reps = census._canonicalize(lat, rows, elements)
    assert reps == _canonicalize_by_minimum(lat, rows, elements)
    assert len(reps) == len(rows) // 168
    with pytest.raises(InternalError, match="not a counterexample"):
        census._canonicalize(lat, rows[1:], elements)
    with pytest.raises(InternalError, match="two counterexamples are the same"):
        census._canonicalize(lat, rows + rows[-1:], elements)
    with pytest.raises(InternalError, match="two stabilizer images"):
        census._canonicalize(lat, rows, elements + elements[:1])
