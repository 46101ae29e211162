"""Acceptance gate: one test (and one pass/fail line) per criterion."""

import functools
import random
import time

import numpy as np

from delpezzo import census, paper, weyl
from delpezzo.effectivity import (
    anticlass_effective,
    brute_force_effective,
    is_effective,
    is_lo,
    is_slo,
    root_stacks,
)
from delpezzo.picard import PicardLattice, vneg
from delpezzo.surface import SurfaceModel, catalog_load
from delpezzo.toric import compute_IXA_windows, cyclic_windows


def _gate(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {label}\n{detail}"


def test_criterion_01_class_inventories():
    t0 = time.time()
    report = paper.verify_table1()
    elapsed = time.time() - t0
    _gate(
        1,
        "class counts per degree match the table",
        report.passed and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_weyl_order_and_freeness(iib_run):
    ok = (
        weyl.group_order(2) == 2903040
        and iib_run.orbit_total == 2903040
        and iib_run.complete
    )
    _gate(2, "|W| at degree 2 is 2903040 and the orbit is free", ok)


def test_criterion_03_strong_census():
    report = paper.verify_table7()
    _gate(3, "strong-mode census counts", report.passed, report.render())


def test_criterion_04_exceptional_census():
    report = paper.verify_table8()
    _gate(4, "exceptional-mode census counts", report.passed, report.render())


def test_criterion_05_explicit_counterexample():
    report = paper.verify_section13()
    _gate(5, "explicit degree-2 counterexample verifies", report.passed,
          report.render())


def test_criterion_06_admissible_sequence_table():
    report = paper.verify_table3()
    _gate(6, "15 cyclic strong admissible sequences", report.passed,
          report.render())


def test_criterion_07_ixa_cardinalities():
    report = paper.verify_ixa_counts()
    _gate(7, "I(X,A) cardinalities for first-kind rows", report.passed,
          report.render())


def test_criterion_08_good_class_propositions():
    report = paper.verify_good_class_tables()
    for degree in (5, 4, 3):
        report.extend(paper.verify_good_class_propositions(degree))
    _gate(8, "good-class propositions, degrees 3-5", report.passed,
          report.render())


def test_criterion_09_effectiveness_oracles():
    rng = random.Random(20260824)
    checked = 0
    for degree in (7, 6, 5, 4, 3):
        for s in catalog_load(degree).entries:
            lat = s.lattice
            minus_k = vneg(lat.canonical)
            for _ in range(1000):
                d = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
                bound = max(0, lat.intersect(d, minus_k))
                got = is_effective(s, d)
                want = brute_force_effective(s, d, bound)
                assert got == want, (s.name, d)
                checked += 1
    # The census's anti-class kernel against the general decider on every
    # (deep class, surface) pair of the IIb-deg2 deep table.
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    deep = census._window_tables(A0, census._window_plan(A0.squares()))[2]
    surfaces = catalog_load(2).entries
    anti = np.repeat(-deep.classes, len(surfaces), axis=0)
    which = np.tile(np.arange(len(surfaces)), deep.classes.shape[0])
    fast = anticlass_effective(root_stacks(surfaces), anti, which).tolist()
    cross = sum(
        is_effective(surfaces[t], tuple(d)) == verdict
        for d, t, verdict in zip(anti.tolist(), which.tolist(), fast)
    )
    ok = checked >= 52_000 and cross == len(fast) == 5_184
    _gate(
        9,
        "effectiveness deciders agree with the search oracle",
        ok,
        f"{checked} random divisors; {cross} census anti-class cross-checks",
    )


def _definition_rows(A0, surfaces, max_layers, decide):
    """The orbit rows to Coxeter length max_layers and, per (surface, mode),
    the mask of those on which every non-cyclic window is lo (exceptional)
    or slo (strong) and no I(X,A) window is an irreducible (-1)-curve.
    `decide(test, s, c)` runs the definition's test once per distinct
    window class c."""
    rows = np.concatenate(
        [
            layer.payload.astype(np.int64)
            for layer in weyl.orbit_layers(A0.lattice, A0.terms, max_layers=max_layers)
        ]
    )
    n, rank = A0.n, A0.lattice.rank
    ixa = set(compute_IXA_windows(A0.squares()))

    def classes(windows):
        """The distinct sums of the windows (their positions) and each
        row's class index per window [rows, windows]."""
        coeffs = np.array([[p in pos for p in range(n)] for pos in windows])
        sums = np.ascontiguousarray((coeffs @ rows).reshape(-1, rank))
        keys = sums.view(np.dtype((np.void, sums.itemsize * rank))).ravel()
        unique, inverse = np.unique(keys, return_inverse=True)
        found = unique.view(np.int64).reshape(-1, rank).tolist()
        return [tuple(c) for c in found], inverse.reshape(len(rows), -1)

    windows, window_ids = classes([p for *_, p in cyclic_windows(n) if n - 1 not in p])
    lines, line_ids = classes([p for k, l, p in cyclic_windows(n) if (k, l) in ixa])
    masks = {}
    for s in surfaces:
        irr = np.array([c in s.irr_lines_set() for c in lines])
        free = ~irr[line_ids].any(axis=1)
        for mode, test in (("exceptional", is_lo), ("strong", is_slo)):
            ok = np.array([decide(test, s, c) for c in windows])
            masks[(s.name, mode)] = free & ok[window_ids].all(axis=1)
    return rows, masks


def test_criterion_10_checker_equivalence():
    # The census's tests (1)-(4) against the definition: the rows that the
    # sweep stores on every degree-2 surface in both modes are the rows
    # that pass the definition with I(X,A) inside I^red.
    surfaces = catalog_load(2).entries
    decide = functools.cache(lambda test, s, c: test(s, c))
    checked = counterexamples = 0
    for name in ("IIb-deg2",) + paper.A11_PRESET_NAMES:
        A0 = census.SEQUENCE_PRESETS[name].initial_system()
        max_layers = 10 if name == "IIb-deg2" else 5
        _, _, store, _ = census._census_sweep(
            A0, surfaces, census.MODES, max_layers=max_layers
        )
        rows, masks = _definition_rows(A0, surfaces, max_layers, decide)
        for key, mask in masks.items():
            found = np.concatenate([rows[:0], *store[key]])
            assert np.array_equal(found, rows[mask]), (name, key)
            counterexamples += int(mask.sum())
        checked += len(rows) * len(masks)
    _gate(
        10,
        "census criteria agree with the definition",
        checked == (7 * 672 + 12_683) * 18 and counterexamples == 25,
        f"{checked} (row, surface, mode) triples, {counterexamples} counterexamples",
    )


def test_criterion_11_classification():
    report = paper.verify_cyclic_strong_classification()
    _gate(11, "cyclic strong classification incl. degree-5 negatives",
          report.passed, report.render())


def test_criterion_12_long_run_checkpoint_resume(tmp_path):
    dp1 = SurfaceModel(PicardLattice.standard(1), (), "X_{1}")
    kwargs = dict(surfaces=(dp1,), modes=("strong",), finalize=False)
    truncated = census.census_for_preset(
        "VI-deg1", **kwargs, checkpoint_dir=tmp_path, max_layers=4
    )
    resumed = census.census_for_preset(
        "VI-deg1", **kwargs, checkpoint_dir=tmp_path, resume=True, max_layers=7
    )
    fresh = census.census_for_preset("VI-deg1", **kwargs, max_layers=7)
    ok = (
        not truncated.complete
        and truncated.orbit_total < fresh.orbit_total == resumed.orbit_total
        and resumed.raw_counts == fresh.raw_counts
    )
    _gate(
        12,
        "long-run mode starts, checkpoints, and resumes",
        ok,
        f"truncated {truncated.orbit_total} -> full {fresh.orbit_total}",
    )
