from dataclasses import replace

import numpy as np
import pytest

from delpezzo import census, weyl
from delpezzo.errors import InputError, InternalError
from delpezzo.effectivity import is_effective
from delpezzo.picard import PicardLattice, vadd, vneg
from delpezzo.report import Report
from delpezzo.surface import SurfaceModel, catalog_load
from delpezzo.toric import (
    ToricSystem,
    blow_down,
    classify_sequence,
    cyclic_windows,
    find_system_with_squares,
)


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
    # index; the sweep's ids, carried down the orbit tree from layer 0,
    # must be the positions found.
    A0 = census.SEQUENCE_PRESETS[preset].initial_system()
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    tables = census._window_tables(A0, plan)
    deep_dtype = {"IIb-deg2": np.uint16, "VI-deg1": np.uint32}[preset]
    rows = 0
    ids = None
    for layer in weyl.orbit_layers(lat, A0.terms, max_layers=6):
        part = layer.payload
        ids = census._layer_ids(plan, tables, layer, ids, False)
        for r, coeffs, table, got in zip((-2, -1, None), plan.coeffs, tables, ids):
            if r is None:
                position = table.index
                assert got.dtype == deep_dtype
            else:
                position = {c: i for i, c in enumerate(lat.enumerate_classes(r))}
                assert got.dtype == np.uint8
            sums = np.einsum("wi,mir->mwr", coeffs, part)
            idx = [[position[tuple(v)] for v in row] for row in sums.tolist()]
            assert np.array_equal(got, np.array(idx).reshape(got.shape))
            assert np.array_equal(table.classes[got], sums)
        rows += part.shape[0]
    assert rows == sum(weyl.poincare_coefficients(lat.degree)[:7])


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
        table = census._window_tables(A0, census._window_plan(A0.squares()))[2]
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
    plan = census._window_plan(A0.squares())
    tables = census._window_tables(A0, plan)
    part = np.array([A0.terms], dtype=np.int64)
    marker = np.array([weyl.regular_marker(lat)])
    for factor in (2, 127):
        layer = weyl.OrbitLayer(0, marker, factor * part, 1)
        with pytest.raises(InternalError, match="not a \\(-2\\)-class"):
            census._layer_ids(plan, tables, layer, None, False)
    layer = weyl.OrbitLayer(0, marker, part, 1)
    assert all(ids.shape == (1, c.shape[0]) for ids, c in zip(
        census._layer_ids(plan, tables, layer, None, False), plan.coeffs
    ))


def test_window_plan_rejects_first_kind():
    with pytest.raises(InputError):
        census._window_plan((0, 0, -1, -1, -1))
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
    for surfaces, modes, what in (
        ((s,), ("strong", "strong"), "mode"),
        ((s, s), ("strong",), "surface"),
    ):
        with pytest.raises(InputError, match=f"repeated {what}"):
            census.census_for_preset(
                "IIb-deg2", surfaces, modes, max_layers=16, finalize=False
            )


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
    formed explicitly, with the general effectivity test for (4)."""
    lat = A0.lattice
    plan = census._window_plan(A0.squares())
    deep = list(plan.deep_coeffs)
    store = {(s.name, mode): [] for s in surfaces for mode in modes}
    candidates = {f"{s.name}/{mode}": 0 for s in surfaces for mode in modes}
    deep_tests = 0
    for layer in weyl.orbit_layers(A0.lattice, A0.terms, max_layers=max_layers):
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
                        if is_effective(s, tuple((-(row @ system)).tolist())):
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
    # A small chunk bound also exercises the chunk boundaries inside a
    # layer, both in carrying the window ids and in the sweep's tests.
    monkeypatch.setattr(census, "_CHUNK_ROWS", batch_rows)
    total, store, stats = census._census_sweep(
        A0, tuple(surfaces), modes, False, layers
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
    # Under test_mode every deep verdict the sweep can read, each deep
    # class on each surface, is checked against `is_effective`.
    A0 = _deg3_system("VI-deg2", 3)
    run = census.census_for_preset(A0, max_layers=7, finalize=False, test_mode=True)
    deep = census._window_tables(A0, census._window_plan(A0.squares()))[2]
    surfaces = len(catalog_load(3).entries)
    assert run.stats["deep_tests"] > 0
    assert run.stats["deep_cross_checks"] == deep.classes.shape[0] * surfaces > 0


def test_surface_masks_reject_more_than_64_surfaces():
    s = catalog_load(3).get("A1")
    with pytest.raises(InputError, match="64 surfaces"):
        census._surface_masks(s.lattice, (), (s,) * 65, False)


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


def test_test_mode_compares_every_row(monkeypatch):
    # Under test_mode every row's propagated ids are checked against its
    # window sums; otherwise only the first row of each generator block is.
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    real = census._window_sums
    looked_up = []
    monkeypatch.setattr(
        census, "_window_sums",
        lambda plan, part: looked_up.append(part.shape[0]) or real(plan, part),
    )
    sizes = weyl.poincare_coefficients(2)[:9]
    census.census_for_preset(A0, max_layers=8, finalize=False, test_mode=True)
    assert sum(looked_up) == sum(sizes)
    looked_up.clear()
    census.census_for_preset(A0, max_layers=8, finalize=False)
    generators = len(weyl.simple_reflection_roots(A0.lattice))
    assert 1 + 8 <= sum(looked_up) <= 1 + 8 * generators


def test_corrupted_reflection_table_is_caught(monkeypatch):
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()

    def swap_two(perm):
        # s_0 on two classes only: most rows never meet them.
        a, b = perm[0, 0], perm[0, 1]
        perm[0, [0, 1]] = b, a
        return perm

    _corrupt_table(monkeypatch, -2, swap_two)
    with pytest.raises(InternalError, match="propagated window class ids differ"):
        census.census_for_preset(A0, max_layers=10, finalize=False, test_mode=True)
    # Every id wrong: the block audit catches it without test_mode.
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
    run = census.census_for_preset(_deg3_system("VI-deg2", 3))
    timers = census.SWEEP_TIMERS + ("canonicalize_s", "reverify_s")
    assert set(timers) | {"representatives_verified"} <= set(run.stats)
    assert all(isinstance(run.stats[k], float) and run.stats[k] >= 0 for k in timers)
    assert all(run.stats[k] > 0 for k in census.SWEEP_TIMERS)
    # Degree 3 has no counterexample, so finalize verifies none.
    assert run.stats["representatives_verified"] == 0
    assert run.stats["rows"] == census.EXPECTED_WEYL_ORDERS[3]


def test_finalize_counts_verified_representatives(iib_run):
    reps = sum(len(r.representatives) for r in iib_run.records.values())
    assert iib_run.stats["representatives_verified"] == reps > 0
    assert iib_run.stats["canonicalize_s"] > 0 and iib_run.stats["reverify_s"] > 0


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
    layer = list(weyl.orbit_layers(lat, A0.terms, max_layers=4))[-1]
    group = np.array([el.images for el in elements], dtype=np.int64)
    closed = {
        image.tobytes(): image
        for row in layer.payload[[0, 5, 10]]
        for image in row.astype(np.int64) @ group
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
