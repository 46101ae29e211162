"""Counterexample census over Weyl orbits, plus the verification suites.

The census streams the whole W-orbit of an initial toric system and
applies four tests to every system on every surface of the degree:

  (1) no cyclic (-2)-window (through position n) is anti-effective;
  (2) no non-cyclic (-2)-window is effective or anti-effective
      (anti-effective only, in exceptional mode);
  (3) every window in I(X,A) lies in I^red(X) (and is slo in degree 1);
  (4) no window of square <= -3 is anti-effective.

A system passing all four is a counterexample: a (strong) exceptional
toric system that is not an augmentation in any sense.  Counting is up
to the stabilizer of the surface's set of irreducible (-2)-curves
("essentially different" systems).

Tests (1)-(3) are vectorized: every (-2)-window of a toric system is a
root and every I(X,A) window is a (-1)-class, and W permutes these
classes.  So every window carries a class id: looked up exactly on the
first layer, then carried down the orbit tree, one simple reflection per
layer.  The ids index bit masks holding the truth tables of all
surfaces.  Test (4) runs on the survivors in batches, with the batched
anti-class effectiveness kernel.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InputError, InternalError
from .picard import (
    Divisor,
    PicardLattice,
    format_divisor,
    parse_divisor,
    parse_divisor_list,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .surface import SurfaceModel, catalog_load, expected_good_zero_classes, is_slo
from .toric import (
    TABLE_CYCLIC_STRONG,
    ToricSystem,
    canonical_cyclic,
    classify_sequence,
    compute_IXA,
    compute_IXA_windows,
    cyclic_windows,
    enumerate_cyclic_strong_admissible,
    find_system_with_squares,
    is_admissible,
    is_cyclic_strong_exceptional,
    is_exceptional,
    is_ixa_window,
    is_strong_exceptional,
)
from .effectivity import anticlass_effective, is_effective, is_hole, root_stacks
from .report import Report
from . import __version__, weyl

#: Weyl group orders by degree (root systems A1, A1+A2, A4, D5, E6, E7, E8).
EXPECTED_WEYL_ORDERS = {
    7: 2,
    6: 12,
    5: 120,
    4: 1920,
    3: 51840,
    2: 2903040,
    1: 696729600,
}


# -- sequence presets ---------------------------------------------------


@dataclass(frozen=True)
class SequencePreset:
    """A named second-kind squares sequence with its initial system."""

    name: str
    degree: int
    squares: tuple[int, ...]
    system_text: str

    def initial_system(self) -> ToricSystem:
        lat = PicardLattice.standard(self.degree)
        A0 = ToricSystem(lat, parse_divisor_list(lat, self.system_text))
        if A0.squares() != self.squares:
            raise InternalError(
                f"preset {self.name}: initial system squares {A0.squares()} "
                f"do not match {self.squares}"
            )
        return A0


#: The degree-2 type-IIb sequence of the counterexample tables, with the
#: explicit counterexample system on X_{2,A1+2A3} as initial system.
IIB_DEG2_SQUARES = (-1, -2, -2, -2, -1, -2, -2, -1, -2, -3)

SECTION13_SURFACE_LABEL = "A1+2A3"
SECTION13_SYSTEM_TEXT = (
    "L25,L137,E3-E4,L236,L15,E1-E7,-L567,3L-E12345567,-L345,-2L+E12257"
)

SEQUENCE_PRESETS: dict[str, SequencePreset] = {
    p.name: p
    for p in [
        SequencePreset("IIb-deg2", 2, IIB_DEG2_SQUARES, SECTION13_SYSTEM_TEXT),
        SequencePreset(
            "VI-deg2",
            2,
            (-2, -2, -1, -2, 0, -2, -2, -2, -1, -4),
            "E2-E3,L127,E7,E1-E7,L-E1,L234,E4-E5,E5-E6,E6,E3-E4-E5-E6",
        ),
        SequencePreset(
            "V-deg2",
            2,
            (-2, -1, -1, 0, -2, -2, -2, -2, -1, -5),
            "E2-E3,L12,E1,L-E1,L234,E4-E5,E5-E6,E6-E7,E7,E3-E4-E5-E6-E7",
        ),
        SequencePreset(
            "IV-deg2",
            2,
            (-2, 0, 1, -2, -2, -2, -2, -2, -1, -6),
            "E1-E2,L-E1,L,L123,E3-E4,E4-E5,E5-E6,E6-E7,E7,E2-E3-E4-E5-E6-E7",
        ),
        SequencePreset(
            "IIIc-1-deg2",
            2,
            (-1, -2, -2, -2, 0, 0, -2, -2, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIc-2-deg2",
            2,
            (-1, -2, -2, -2, -2, 0, 0, -2, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,E2-E3,L-E2,L-E1,E1-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIc-3-deg2",
            2,
            (-1, -2, -2, -2, -2, -2, 0, 0, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIa-deg2",
            2,
            (-1, -2, -2, -2, -2, -2, -2, 0, 1, -6),
            "E7,E6-E7,E5-E6,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L,L1234567",
        ),
        # Degree 1 (long-run only).
        SequencePreset(
            "VI-deg1",
            1,
            (-2, -2, -1, -2, 0, -2, -2, -2, -2, -1, -5),
            "E2-E3,L127,E7,E1-E7,L-E1,L234,E4-E5,E5-E6,E6-E8,E8,"
            "E3-E4-E5-E6-E8",
        ),
        SequencePreset(
            "V-deg1",
            1,
            (-2, -1, -1, 0, -2, -2, -2, -2, -2, -1, -6),
            "E2-E3,L12,E1,L-E1,L234,E4-E5,E5-E6,E6-E7,E7-E8,E8,"
            "E3-E4-E5-E6-E7-E8",
        ),
        SequencePreset(
            "IV-deg1",
            1,
            (-2, 0, 1, -2, -2, -2, -2, -2, -2, -1, -7),
            "E1-E2,L-E1,L,L123,E3-E4,E4-E5,E5-E6,E6-E7,E7-E8,E8,"
            "E2-E3-E4-E5-E6-E7-E8",
        ),
        SequencePreset(
            "IIIc-1-deg1",
            1,
            (-1, -2, -2, -2, -2, 0, 0, -2, -2, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIc-2-deg1",
            1,
            (-1, -2, -2, -2, 0, 0, -2, -2, -2, -1, -7),
            "E7,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6-E8,E8,L12345678",
        ),
        SequencePreset(
            "IIIc-3-deg1",
            1,
            (-1, -2, -2, -2, -2, -2, 0, 0, -2, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,E2-E3,L-E2,L-E1,E1-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIc-4-deg1",
            1,
            (-1, -2, -2, -2, -2, -2, -2, 0, 0, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIa-deg1",
            1,
            (-1, -2, -2, -2, -2, -2, -2, -2, 0, 1, -7),
            "E8,E7-E8,E6-E7,E5-E6,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L,L12345678",
        ),
    ]
}

#: Degree-2 presets of types III-VI (expected to yield no counterexample).
A11_PRESET_NAMES = (
    "VI-deg2",
    "V-deg2",
    "IV-deg2",
    "IIIc-1-deg2",
    "IIIc-2-deg2",
    "IIIc-3-deg2",
    "IIIa-deg2",
)

#: Strong-mode counterexample counts: type -> (essential, stabilizer, total).
TABLE7_EXPECTED = {
    "7A1": (48, 168, 8064),
    "6A1": (90, 48, 4320),
    "5A1": (36, 32, 1152),
    "A3+3A1": (144, 4, 576),
    "A1+2A3": (72, 4, 288),
}

#: Exceptional-mode counts: type -> (essential, stabilizer, total).
TABLE8_EXPECTED = {
    "7A1": (90, 168, 15120),
    "6A1": (126, 48, 6048),
    "5A1": (36, 32, 1152),
    "A3+3A1": (144, 4, 576),
    "A1+2A3": (72, 4, 288),
    "D4+2A1": (9, 4, 36),
    "D4+3A1": (177, 6, 1062),
}

MODES = ("strong", "exceptional")


# -- window plan --------------------------------------------------------


@dataclass(frozen=True)
class _WindowPlan:
    """Precomputed windows of a second-kind squares sequence.

    Coefficient rows select the terms of each window, so the window sums
    of a batch of systems [m, n, rank] are `coeffs @ batch`.  A sweep looks
    them up as class ids on layer 0 and carries the ids down the orbit
    tree after that (see `_layer_ids`).  The deep windows
    (square <= -3) all run through the last term and take test (4).
    """

    n: int
    squares: tuple[int, ...]
    root_coeffs: np.ndarray  # [w2, n] 0/1, all (-2)-windows
    root_through_n: np.ndarray  # [w2] bool, cyclic (through position n)
    ixa_coeffs: np.ndarray  # [wI, n], the I(X,A) windows
    deep_windows: tuple[tuple[tuple[int, ...], tuple[int, int]], ...]


def _window_plan(a: tuple[int, ...]) -> _WindowPlan:
    n = len(a)
    low = [i for i, x in enumerate(a) if x < -2]
    if len(low) == 1 and low[0] != n - 1:
        k = low[0] + 1
        raise InputError(
            f"the census needs the entry below -2 last: rotate {a} left by "
            f"{k} to {a[k:] + a[:k]}"
        )
    if a[-1] > -3:
        raise InputError(f"{a} is not of the second kind (a_n <= -3 required)")
    if any(x < -2 for x in a[:-1]):
        raise InputError(f"{a} is not strong admissible (a_i >= -2 for i < n)")
    root_rows, root_through, ixa_rows, deep = [], [], [], []
    for k, l, pos in cyclic_windows(n):
        sq = sum(a[p] + 2 for p in pos) - 2
        through = n - 1 in pos
        row = tuple(int(p in pos) for p in range(n))
        if sq == -2:
            root_rows.append(row)
            root_through.append(through)
        elif sq <= -3:
            if not through:
                raise InternalError("window of square <= -3 avoiding the last term")
            deep.append((row, (k, l)))
        elif is_ixa_window(a, pos):
            if through:
                raise InternalError("I(X,A) window through the last term")
            ixa_rows.append(row)
    return _WindowPlan(
        n=n,
        squares=tuple(a),
        root_coeffs=np.array(root_rows, dtype=np.int64).reshape(-1, n),
        root_through_n=np.array(root_through, dtype=bool),
        ixa_coeffs=np.array(ixa_rows, dtype=np.int64).reshape(-1, n),
        deep_windows=tuple(deep),
    )


# -- class ids and per-surface bit masks --------------------------------


@dataclass(frozen=True)
class _ClassTable:
    """The r-classes of a lattice sorted by packed key; a class's id is its
    position.  W permutes the classes: `perm[i, c]` is the id of s_i(class
    c), s_i the i-th simple reflection of `weyl.simple_reflection_roots`.
    Every lattice has at most 240 classes of each kind, so ids are uint8.
    """

    classes: np.ndarray  # [c, rank] int64
    keys: np.ndarray  # [c] uint64, ascending
    perm: np.ndarray  # [generators, c] uint8


def _class_ids(keys: np.ndarray, vectors: np.ndarray, what: str) -> np.ndarray:
    """uint8 ids of the int64 vectors [..., rank] among the classes with
    the sorted `keys`.  `pack_rows` range-checks every coordinate, so an
    equal key means an equal vector."""
    found = weyl.pack_rows(vectors)
    ids = np.minimum(np.searchsorted(keys, found), keys.size - 1)
    if not np.array_equal(keys[ids], found):
        raise InternalError(f"window sum is not a {what} (invariant violated)")
    return ids.astype(np.uint8)


@lru_cache(maxsize=None)
def _class_table(lattice: PicardLattice, r: int) -> _ClassTable:
    classes = np.array(lattice.enumerate_classes(r), dtype=np.int64)
    keys = weyl.pack_rows(classes)
    order = np.argsort(keys)
    classes, keys = classes[order], keys[order]
    generators = len(weyl.simple_reflection_roots(lattice))
    images = np.repeat(classes[None], generators, axis=0)
    for i, image in enumerate(images):
        weyl.reflect_rows(image, i)
    table = _ClassTable(classes, keys, _class_ids(keys, images, f"{r}-class"))
    for arr in (table.classes, table.keys, table.perm):
        arr.flags.writeable = False  # cached and shared by every caller
    return table


def _window_sums(plan: _WindowPlan, part: np.ndarray):
    """int64 sums [m, w2, rank] and [m, wI, rank] of the (-2)- and I(X,A)
    windows of the systems part [m, n, rank] (any integer dtype)."""
    return plan.root_coeffs @ part, plan.ixa_coeffs @ part


def _layer_ids(lattice, plan, layer: weyl.OrbitLayer, prev, test_mode: bool):
    """Class ids [N, w2] and [N, wI] (uint8) of the windows of every system
    of the layer.

    Layer 0 is looked up exactly from its window sums.  On every later
    layer a row's windows are its parent's windows reflected by the row's
    generator i, so its ids are `perm[i, parent ids]`, with `prev` the ids
    of the previous layer.  Audit: the classes of the first row of every
    generator block must equal its window sums; under test_mode, those of
    every row.
    """
    arr = layer.payload
    tables = (_class_table(lattice, -2), _class_table(lattice, -1))
    chunks = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, arr.shape[0], _CHUNK_ROWS)]
    out = tuple(
        np.empty((arr.shape[0], c.shape[0]), dtype=np.uint8)
        for c in (plan.root_coeffs, plan.ixa_coeffs)
    )
    if layer.parents is None:
        for rows in chunks:
            sums = _window_sums(plan, arr[rows])
            for t, o, x, what in zip(tables, out, sums, ("(-2)-class", "(-1)-class")):
                o[rows] = _class_ids(t.keys, x, what)
        return out
    blocks = layer.blocks
    for i, (start, end) in enumerate(zip(blocks[:-1], blocks[1:])):
        for lo in range(start, end, _CHUNK_ROWS):
            parents = layer.parents[lo : min(lo + _CHUNK_ROWS, end)]
            for t, p, o in zip(tables, prev, out):
                o[lo : lo + parents.size] = t.perm[i].take(p.take(parents, axis=0))
    for rows in chunks if test_mode else [blocks[:-1][np.diff(blocks) > 0]]:
        sums = _window_sums(plan, arr[rows])
        if not all(
            np.array_equal(t.classes[o[rows]], x) for t, o, x in zip(tables, out, sums)
        ):
            raise InternalError(
                f"propagated window class ids differ from the window sums "
                f"on orbit layer {layer.index} (invariant violated)"
            )
    return out


@dataclass(frozen=True)
class _SurfaceMasks:
    """Per-surface truth tables stacked as bits: bit t of a class id's mask
    is the verdict of surface t on that class."""

    root_anti: np.ndarray  # [c2] uint64: -r is effective
    root_eff: np.ndarray  # [c2] uint64: r is effective
    line_fail: np.ndarray  # [c1] uint64: irreducible, or not slo (degree 1)


def _surface_masks(
    lattice: PicardLattice, surfaces: tuple[SurfaceModel, ...]
) -> _SurfaceMasks:
    if len(surfaces) > 64:
        raise InputError(f"a census covers at most 64 surfaces, not {len(surfaces)}")
    root_list = [tuple(r) for r in _class_table(lattice, -2).classes.tolist()]
    line_list = [tuple(c) for c in _class_table(lattice, -1).classes.tolist()]
    masks = _SurfaceMasks(
        np.zeros(len(root_list), dtype=np.uint64),
        np.zeros(len(root_list), dtype=np.uint64),
        np.zeros(len(line_list), dtype=np.uint64),
    )
    for t, s in enumerate(surfaces):
        bit = np.uint64(1 << t)
        eff = s.effective_roots_set()
        irr = s.irr_lines_set()
        masks.root_anti[[vneg(r) in eff for r in root_list]] |= bit
        masks.root_eff[[r in eff for r in root_list]] |= bit
        # In degree 1 a (-1)-class C is slo iff C + K is not effective.
        fail = [
            c in irr or (lattice.degree == 1 and vadd(c, lattice.canonical) in eff)
            for c in line_list
        ]
        masks.line_fail[fail] |= bit
    return masks


# -- stabilizers --------------------------------------------------------


@lru_cache(maxsize=None)
def stabilizer_table(degree: int) -> dict[str, tuple[weyl.WeylElement, ...] | None]:
    """Stabilizer elements of every catalog surface's simple-root set
    (`weyl.stabilizer_elements_of_root_set`).  The del Pezzo entry maps to
    None (its stabilizer is all of W).
    """
    return {
        s.name: (
            weyl.stabilizer_elements_of_root_set(degree, s.simple_roots)
            if s.simple_roots
            else None
        )
        for s in catalog_load(degree).entries
    }


def _stabilizer_order(degree: int, name: str) -> int:
    elements = stabilizer_table(degree)[name]
    if elements is None:
        return EXPECTED_WEYL_ORDERS[degree]
    return len(elements)


# -- the census engine --------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    """Counterexample count for one surface and mode."""

    surface: str
    sequence: tuple[int, ...]
    mode: str
    total_count: int
    stabilizer_order: int
    essentially_different_count: int
    representatives: tuple[ToricSystem, ...]

    def __post_init__(self):
        if (
            self.total_count
            != self.essentially_different_count * self.stabilizer_order
        ):
            raise InternalError(
                f"{self.surface}/{self.mode}: total {self.total_count} != "
                f"essential {self.essentially_different_count} x stabilizer "
                f"{self.stabilizer_order}"
            )


@dataclass
class CensusRun:
    """Result of one orbit sweep: records keyed by (surface name, mode).

    `stats` counts the sweep's work: `rows` (orbit rows scanned),
    `deep_candidates` (rows passing tests (1)-(3), keyed "surface/mode"),
    `deep_tests` (one per row, surface, mode and deep window tested) and
    `deep_cross_checks` (deep verdicts checked against `is_effective`
    under test_mode).  It times each phase in seconds: `orbit_s` (the
    orbit walk), `window_ids_s` (window class ids), `mask_tests_s` (tests
    (1)-(3)), `deep_tests_s` (test (4)), and in finalize `canonicalize_s`
    and `reverify_s` (0 without finalize); `representatives_verified`
    counts the representatives re-verified.
    """

    preset_name: str
    squares: tuple[int, ...]
    orbit_total: int
    complete: bool
    records: dict[tuple[str, str], CensusRecord]
    raw_counts: dict[tuple[str, str], int]
    stats: dict


_CHUNK_ROWS = 4096
#: Phase timers (seconds) of `CensusRun.stats` filled by the sweep.
SWEEP_TIMERS = ("orbit_s", "window_ids_s", "mask_tests_s", "deep_tests_s")
#: Buffered deep-test candidates that trigger a flush before the layer ends.
_DEEP_BATCH_ROWS = 512


#: The census checkpoint's file name inside a checkpoint directory.
_CHECKPOINT = "census.npz"


def _save_checkpoint(directory, config: dict, index: int, store, like) -> None:
    """Write, atomically, the last finished layer and the counterexample
    rows of every (surface, mode) so far, in `store` order; `like` is a
    layer payload giving the rows' shape and dtype."""
    path = Path(directory) / _CHECKPOINT
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [row for found in store.values() for row in found]
    with open(f"{path}.tmp", "wb") as fh:
        np.savez(
            fh,
            config=np.array(json.dumps(config)),
            layer=np.int64(index),
            counts=np.array([len(found) for found in store.values()], dtype=np.int64),
            rows=np.array(rows, dtype=like.dtype).reshape(-1, *like.shape[1:]),
        )
    os.replace(f"{path}.tmp", path)


def _load_checkpoint(directory, config: dict, store, max_layers) -> int:
    """Fill `store` from the checkpoint in `directory` and return its last
    finished layer.  A missing or unreadable checkpoint, one written for
    another configuration or one past `max_layers` is an `InputError`."""
    if directory is None:
        raise InputError("resume requires a checkpoint directory")
    try:
        with np.load(Path(directory) / _CHECKPOINT) as data:
            saved = json.loads(str(data["config"]))
            index, counts, rows = int(data["layer"]), data["counts"], data["rows"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise InputError(
            f"no readable census checkpoint in {directory}: {exc}"
        ) from exc
    differ = [key for key in config if saved.get(key) != config[key]]
    if differ:
        raise InputError(
            f"census checkpoint in {directory} was written for other "
            + ", ".join(differ)
        )
    if max_layers is not None and max_layers < index:
        raise InputError(f"the checkpoint has finished layer {index}, past max_layers")
    for found, hi, count in zip(store.values(), np.cumsum(counts), counts):
        found.extend(rows[hi - count : hi])
    return index


def _census_sweep(
    A0: ToricSystem,
    surfaces: tuple[SurfaceModel, ...],
    modes: tuple[str, ...],
    test_mode: bool,
    max_layers: int | None,
    checkpoint_dir=None,
    resume: bool = False,
):
    """Stream the orbit of A0 and collect counterexample systems.

    Tests (1)-(3) run on whole chunks for all surfaces at once: the window
    class ids of each layer (`_layer_ids`, carried down the orbit tree)
    gather the surfaces' bit masks, and an OR over the windows gives each
    row's failure bits.  Only two layers of ids are held at a time, w2 + wI
    bytes per row each.  The survivors, buffered as (layer row, surface,
    mode), take test (4) in batches, one `anticlass_effective` call per
    deep window; a row leaves the batch at its first effective deep
    anti-class.  The buffer is flushed at the end of every layer and
    whenever it holds `_DEEP_BATCH_ROWS` candidates.

    A resumed sweep (`_load_checkpoint`) starts from the saved
    counterexamples and walks the orbit again from layer 0, testing only
    the layers after the saved one.

    Returns (orbit_total, store, stats) where store maps (surface name,
    mode) to the list of counterexample system arrays in deterministic
    orbit order.
    """
    lat = A0.lattice
    plan = _window_plan(A0.squares())
    masks = _surface_masks(lat, surfaces)
    stacks = root_stacks(surfaces)
    noncyc = ~plan.root_through_n
    deep_terms = [np.flatnonzero(row) for row, _ in plan.deep_windows]
    everyone = np.uint64((1 << len(surfaces)) - 1)
    bit_shifts = np.arange(len(surfaces), dtype=np.uint64)
    store: dict[tuple[str, str], list[np.ndarray]] = {
        (s.name, mode): [] for s in surfaces for mode in modes
    }
    stats = {"rows": 0, "deep_tests": 0, "deep_cross_checks": 0}
    stats.update(dict.fromkeys(SWEEP_TIMERS, 0.0))
    candidates = np.zeros((len(modes), len(surfaces)), dtype=np.int64)
    pending: list[tuple[np.ndarray, np.ndarray, int]] = []  # rows, surfaces, mode

    def flush(arr: np.ndarray) -> None:
        start = time.perf_counter()
        rows = np.concatenate([p[0] for p in pending])
        which = np.concatenate([p[1] for p in pending])
        mode_of = np.concatenate([np.full(p[0].size, p[2]) for p in pending])
        pending.clear()
        alive = np.arange(rows.size)
        for terms in deep_terms:
            d = -arr[rows[alive, None], terms].sum(axis=1)
            verdict = anticlass_effective(stacks, d, which[alive])
            stats["deep_tests"] += alive.size
            if test_mode:
                for row_d, t, fast in zip(d.tolist(), which[alive], verdict):
                    if is_effective(surfaces[t], tuple(row_d))[0] != fast:
                        raise InternalError(
                            f"fast anti-class test disagrees with the general "
                            f"test on {tuple(row_d)} ({surfaces[t].name})"
                        )
                stats["deep_cross_checks"] += alive.size
            alive = alive[~verdict]
        for i in alive:
            key = (surfaces[which[i]].name, modes[mode_of[i]])
            store[key].append(arr[rows[i]].copy())
        stats["deep_tests_s"] += time.perf_counter() - start

    config = {  # what a checkpoint is bound to
        "terms": [list(t) for t in A0.terms],
        "surfaces": [[s.name, [list(r) for r in s.simple_roots]] for s in surfaces],
        "modes": list(modes),
        "version": __version__,
    }
    # the last layer whose counterexamples are in store
    done = _load_checkpoint(checkpoint_dir, config, store, max_layers) if resume else -1

    orbit_total = 0
    ids = None
    layers = weyl.orbit_layers(A0.lattice, A0.terms, max_layers=max_layers)
    while True:
        start = time.perf_counter()
        layer = next(layers, None)
        stats["orbit_s"] += time.perf_counter() - start
        if layer is None:
            break
        orbit_total = layer.total_so_far
        arr = layer.payload
        stats["rows"] += arr.shape[0]
        start = time.perf_counter()
        ids = _layer_ids(lat, plan, layer, ids, test_mode)
        stats["window_ids_s"] += time.perf_counter() - start
        if layer.index <= done:
            continue
        for lo in range(0, arr.shape[0], _CHUNK_ROWS):
            start = time.perf_counter()
            ids2, idsI = (x[lo : lo + _CHUNK_ROWS] for x in ids)
            anti = np.bitwise_or.reduce(masks.root_anti[ids2], axis=1)
            eff2 = np.bitwise_or.reduce(masks.root_eff[ids2[:, noncyc]], axis=1)
            fail3 = np.bitwise_or.reduce(masks.line_fail[idsI], axis=1)
            base = ~(anti | fail3) & everyone
            for m, mode in enumerate(modes):
                ok = base & ~eff2 if mode == "strong" else base
                if not ok.any():
                    continue
                rows, which = np.nonzero((ok[:, None] >> bit_shifts) & np.uint64(1))
                candidates[m] += np.bincount(which, minlength=len(surfaces))
                pending.append((rows + lo, which, m))
            stats["mask_tests_s"] += time.perf_counter() - start
            if sum(p[0].size for p in pending) >= _DEEP_BATCH_ROWS:
                flush(arr)
        if pending:
            flush(arr)
        if checkpoint_dir is not None:
            _save_checkpoint(checkpoint_dir, config, layer.index, store, arr)
    stats["deep_candidates"] = {
        f"{s.name}/{mode}": int(candidates[m, t])
        for t, s in enumerate(surfaces)
        for m, mode in enumerate(modes)
    }
    return orbit_total, store, stats


def _canonicalize(
    lattice: PicardLattice,
    arrays: list[np.ndarray],
    elements: tuple[weyl.WeylElement, ...],
):
    """Group counterexamples into stabilizer orbits; return canonical reps.

    The canonical representative of an orbit is the image whose stack,
    as little-endian int64 `tobytes()`, is the least byte string, and the
    representatives come in that order.  Low bytes compare first, so
    coefficients in -128..127 (every census orbit) are compared one by
    one as x mod 256: 0 < 1 < ... < 127 < -128 < ... < -1.
    """
    total = len(arrays)
    stack = np.stack(arrays)
    canonical: list[bytes] | None = None
    for el in elements:
        images = np.array(el.images, dtype=np.int64)  # v -> v @ images
        t = np.ascontiguousarray(stack @ images).reshape(total, -1)
        kb = [row.tobytes() for row in t]
        canonical = kb if canonical is None else [
            min(x, y) for x, y in zip(canonical, kb)
        ]
    groups: dict[bytes, list[int]] = defaultdict(list)
    for i, key in enumerate(canonical):
        groups[key].append(i)
    for members in groups.values():
        if len(members) != len(elements):
            raise InternalError(
                "stabilizer orbit of a counterexample has unexpected size "
                f"{len(members)} (stabilizer order {len(elements)})"
            )
    n, rank = arrays[0].shape
    reps = []
    for key in sorted(groups):
        rep = np.frombuffer(key, dtype=np.int64).reshape(n, rank)
        reps.append(
            ToricSystem(lattice, tuple(tuple(int(x) for x in t) for t in rep))
        )
    return tuple(reps)


def _verify_representatives(
    s: SurfaceModel, mode: str, reps: tuple[ToricSystem, ...]
) -> dict:
    """Re-verify canonical representatives independently of the sweep.

    Each representative must pass the reference exceptionality checker,
    have I(X,A) inside I^red, and exhibit the hole property: at least one
    of the windows -A_n, -A_{n-1,n} is a hole in the effective cone.
    """
    red = s.red_lines_set()
    hole_failures = 0
    for A in reps:
        checker = is_strong_exceptional if mode == "strong" else is_exceptional
        result = checker(s, A, method="reference")
        if not result.ok:
            raise InternalError(
                f"census counterexample fails the reference {mode} checker "
                f"at window {result.witness} on {s.name}"
            )
        if not compute_IXA(A) <= red:
            raise InternalError(
                f"census counterexample has irreducible I(X,A) member on {s.name}"
            )
        n = A.n
        if not (
            is_hole(s, vneg(A.window(n, n)))
            or is_hole(s, vneg(A.window(n - 1, n)))
        ):
            hole_failures += 1
    return {"hole_failures": hole_failures}


def census_for_preset(
    preset,
    surfaces=None,
    modes: tuple[str, ...] = MODES,
    *,
    test_mode: bool = False,
    finalize: bool = True,
    checkpoint_dir=None,
    resume: bool = False,
    max_layers: int | None = None,
) -> CensusRun:
    """Run the counterexample census for a named preset or a ToricSystem.

    With finalize=True (the default, requires a complete orbit) the raw
    counts are reduced to essentially-different counts by the stabilizer
    of each surface's simple roots, and every representative re-verifies
    under the reference checker.

    With `checkpoint_dir`, progress is saved after every layer, and
    `resume=True` continues from it to the raw counts and records of an
    uninterrupted run (see `_census_sweep`).
    """
    if isinstance(preset, str):
        if preset not in SEQUENCE_PRESETS:
            raise InputError(
                f"unknown sequence preset {preset!r}; known: "
                f"{', '.join(sorted(SEQUENCE_PRESETS))}"
            )
        preset = SEQUENCE_PRESETS[preset]
    if isinstance(preset, SequencePreset):
        name = preset.name
        A0 = preset.initial_system()
    else:
        A0 = preset
        name = "custom"
    for mode in modes:
        if mode not in MODES:
            raise InputError(f"unknown census mode {mode!r}")
    degree = A0.lattice.degree
    if surfaces is None:
        surfaces = catalog_load(degree).entries
    surfaces = tuple(surfaces)
    orbit_total, store, stats = _census_sweep(
        A0, surfaces, tuple(modes), test_mode, max_layers, checkpoint_dir, resume
    )
    complete = max_layers is None
    if complete and orbit_total != EXPECTED_WEYL_ORDERS[degree]:
        raise InternalError(
            f"orbit size {orbit_total} != |W| = {EXPECTED_WEYL_ORDERS[degree]}"
        )
    raw_counts = {key: len(rows) for key, rows in store.items()}
    records: dict[tuple[str, str], CensusRecord] = {}
    stats.update(canonicalize_s=0.0, reverify_s=0.0, representatives_verified=0)
    if finalize:
        if not complete:
            raise InputError("cannot finalize a truncated census run")
        squares = A0.squares()
        by_name = {s.name: s for s in surfaces}
        for (sname, mode), rows in sorted(store.items()):
            stab_order = _stabilizer_order(degree, sname)
            if not rows:
                records[(sname, mode)] = CensusRecord(
                    sname, squares, mode, 0, stab_order, 0, ()
                )
                continue
            elements = stabilizer_table(degree)[sname]
            if elements is None:
                raise InternalError(
                    "counterexamples on a surface without (-2)-curves"
                )
            start = time.perf_counter()
            reps = _canonicalize(A0.lattice, rows, elements)
            stats["canonicalize_s"] += time.perf_counter() - start
            record = CensusRecord(
                sname, squares, mode, len(rows), stab_order, len(reps), reps
            )
            start = time.perf_counter()
            extra = _verify_representatives(by_name[sname], mode, reps)
            stats["reverify_s"] += time.perf_counter() - start
            stats["representatives_verified"] += len(reps)
            if extra["hole_failures"]:
                raise InternalError(
                    f"{extra['hole_failures']} counterexamples on {sname} "
                    "lack the hole property"
                )
            if mode == "strong" and len(rows) >= 0.003 * orbit_total:
                raise InternalError(
                    f"{sname}: counterexample fraction exceeds 0.3%"
                )
            records[(sname, mode)] = record
    return CensusRun(
        preset_name=name,
        squares=A0.squares(),
        orbit_total=orbit_total,
        complete=complete,
        records=records,
        raw_counts=raw_counts,
        stats=stats,
    )


# -- Tables 7 and 8 -----------------------------------------------------


def _census_table_report(
    run: CensusRun, mode: str, expected: dict, title: str
) -> Report:
    report = Report(title)
    degree = 2
    for s in catalog_load(degree).entries:
        record = run.records[(s.name, mode)]
        label = s.name
        exp = expected.get(_type_label(s.name))
        if exp is None:
            if _type_label(s.name) == "D6+A1":
                report.note(
                    f"{label} (open finding)",
                    f"essential {record.essentially_different_count}, "
                    f"stabilizer {record.stabilizer_order}, "
                    f"total {record.total_count}",
                )
            else:
                report.check(f"{label} total", 0, record.total_count)
            continue
        essential, stabilizer, total = exp
        report.check(
            f"{label} essential", essential, record.essentially_different_count
        )
        report.check(f"{label} stabilizer", stabilizer, record.stabilizer_order)
        report.check(f"{label} total", total, record.total_count)
    return report


def _type_label(surface_name: str) -> str:
    # "X_{2,A1+2A3}" -> "A1+2A3"; "X_{2}" -> "dP".
    if "," not in surface_name:
        return "dP"
    return surface_name.split(",", 1)[1].rstrip("}")


def verify_table7(run: CensusRun | None = None) -> Report:
    if run is None:
        run = census_for_preset("IIb-deg2")
    return _census_table_report(
        run, "strong", TABLE7_EXPECTED, "strong-mode type-IIb census (degree 2)"
    )


def verify_table8(run: CensusRun | None = None) -> Report:
    if run is None:
        run = census_for_preset("IIb-deg2")
    return _census_table_report(
        run,
        "exceptional",
        TABLE8_EXPECTED,
        "exceptional-mode type-IIb census (degree 2)",
    )


def verify_degree2_type3to6() -> Report:
    """Censuses for the seven degree-2 type III-VI sequences: no output."""
    report = Report("degree-2 type III-VI censuses")
    for name in A11_PRESET_NAMES:
        preset = SEQUENCE_PRESETS[name]
        kind = classify_sequence(preset.squares)
        report.check(f"{name} kind", "second", kind.kind)
        run = census_for_preset(name)
        strong_total = sum(
            c for (sn, m), c in run.raw_counts.items() if m == "strong"
        )
        exc_total = sum(
            c for (sn, m), c in run.raw_counts.items() if m == "exceptional"
        )
        report.check(f"{name} strong counterexamples", 0, strong_total)
        report.note(f"{name} exceptional counterexamples", exc_total)
    return report


# -- the explicit degree-2 counterexample -------------------------------

SECTION13_IRR_LINES_TEXT = "E3,E7,L14,L45"
SECTION13_IXA_TEXT = (
    "L25,Q46,Q36,C2,L15,Q47,Q37,C1,L57,Q14,Q13,C7,E6,L23,L24,Q56,"
    "C5,Q67,Q16,Q34,L12,L27"
)
SECTION13_ROOT_WINDOWS = {
    (2, 2): "L137",
    (3, 3): "E3-E4",
    (4, 4): "L236",
    (2, 3): "L147",
    (3, 4): "L246",
    (2, 4): "2L-E123467",
    (6, 6): "E1-E7",
    (7, 7): "-L567",
    (6, 7): "-L156",
    (9, 9): "-L345",
}
#: (divisor, curves subtracted in order, expected residual) chains showing
#: the two (-3)-anti-classes are not effective.
SECTION13_CHAINS = (
    ("2L-E12257", ("2L-E124567", "E6-E7", "E7"), "E4-E2"),
    (
        "3L-E12234557",
        ("E1-E2", "E4-E5", "L123", "2L-E124567", "E6-E7", "E7"),
        "E2-E4",
    ),
)


def section13_surface() -> SurfaceModel:
    return catalog_load(2).get(SECTION13_SURFACE_LABEL)


def section13_system() -> ToricSystem:
    return SEQUENCE_PRESETS["IIb-deg2"].initial_system()


def verify_section13() -> Report:
    """Re-verify the explicit degree-2 counterexample end to end."""
    report = Report("explicit degree-2 counterexample")
    s = section13_surface()
    lat = s.lattice
    A = section13_system()
    report.check("A^2", IIB_DEG2_SQUARES, A.squares())
    report.check(
        "I^irr",
        set(parse_divisor_list(lat, SECTION13_IRR_LINES_TEXT)),
        set(s.irr_lines_set()),
    )
    ixa = compute_IXA(A)
    printed = parse_divisor_list(lat, SECTION13_IXA_TEXT)
    report.check("|I(X,A)| (printed display)", 22, len(printed))
    report.check("I(X,A) = printed display", set(printed), ixa)
    report.check_true("I(X,A) inside I^red", ixa <= s.red_lines_set())
    for (k, l), text in sorted(SECTION13_ROOT_WINDOWS.items()):
        d = parse_divisor(lat, text)
        report.check(f"window [{k}..{l}] value", d, A.window(k, l))
        report.check_true(
            f"window [{k}..{l}] neither effective nor anti-effective",
            not is_effective(s, d)[0] and not is_effective(s, vneg(d))[0],
        )
    report.check("-A_10", parse_divisor(lat, "2L-E12257"), vneg(A.window(10, 10)))
    report.check(
        "-A_{9,10}", parse_divisor(lat, "3L-E12234557"), vneg(A.window(9, 10))
    )
    for text, curves, residual_text in SECTION13_CHAINS:
        d = parse_divisor(lat, text)
        ok = True
        for curve_text in curves:
            c = parse_divisor(lat, curve_text)
            if lat.intersect(d, c) >= 0:
                ok = False
                break
            d = vsub(d, c)
        report.check_true(f"{text}: subtraction chain strictly descends", ok)
        report.check(
            f"{text}: chain residual",
            parse_divisor(lat, residual_text),
            d,
        )
        report.check_true(
            f"{text}: not effective",
            not is_effective(s, parse_divisor(lat, text))[0],
        )
    report.check_true(
        "strong exceptional", is_strong_exceptional(s, A, method="reference").ok
    )
    report.check_true(
        "not cyclic strong exceptional",
        not is_cyclic_strong_exceptional(s, A).ok,
    )
    holes = [
        is_hole(s, vneg(A.window(10, 10))),
        is_hole(s, vneg(A.window(9, 10))),
    ]
    report.check_true("at least one of -A_10, -A_{9,10} is a hole", any(holes))
    report.note("holes among (-A_10, -A_{9,10})", tuple(holes))
    return report


# -- good classes -------------------------------------------------------


def is_good_set(s: SurfaceModel, divisors) -> bool:
    """Every irreducible (-1)-curve meets some member positively, and the
    members pairwise meet in exactly one point."""
    divisors = tuple(divisors)
    lat = s.lattice
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            if lat.intersect(divisors[i], divisors[j]) != 1:
                return False
    return all(
        any(lat.intersect(c, d) >= 1 for d in divisors)
        for c in s.irr_lines_set()
    )


def good_zero_classes(s: SurfaceModel) -> frozenset[Divisor]:
    return frozenset(
        d for d in s.lattice.enumerate_classes(0) if is_good_set(s, (d,))
    )


def good_one_classes(s: SurfaceModel) -> frozenset[Divisor]:
    return frozenset(
        d for d in s.lattice.enumerate_classes(1) if is_good_set(s, (d,))
    )


def good_zero_pairs(s: SurfaceModel) -> frozenset[tuple[Divisor, Divisor]]:
    """Unordered good pairs of 0-classes (jointly good, product 1)."""
    zeros = sorted(s.lattice.enumerate_classes(0))
    out = set()
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            if is_good_set(s, (zeros[i], zeros[j])):
                out.add((zeros[i], zeros[j]))
    return frozenset(out)


def verify_good_class_tables() -> Report:
    """Good 0-classes against the catalog tables (degrees 3-6)."""
    report = Report("good 0-classes vs catalog tables")
    for degree in (6, 5, 4, 3):
        for s in catalog_load(degree).entries:
            label = _type_label(s.name)
            expected = expected_good_zero_classes(degree, label)
            if expected is None:
                continue
            computed = good_zero_classes(s)
            if isinstance(expected, int):
                report.check(f"{s.name} good-S count", expected, len(computed))
            else:
                report.check(f"{s.name} good S", set(expected), set(computed))
    return report


#: Exceptions to "2S + K effective for good 0-classes S" in degree 3.
PROP_2SK_EXCEPTIONS = {
    ("A5", "L6"),
    ("A1+A5", "L6"),
    ("E6", "L6"),
    ("A5", "C6"),
}


def verify_good_class_propositions(degree: int) -> Report:
    """The effectiveness claims for good classes, pairs and triples."""
    if degree not in (3, 4, 5):
        raise InputError(f"good-class propositions cover degrees 3-5, not {degree}")
    report = Report(f"good-class propositions, degree {degree}")
    catalog = catalog_load(degree)
    k_class = PicardLattice.standard(degree).canonical

    def eff(s, d):
        return is_effective(s, d)[0]

    for s in catalog.entries:
        lat = s.lattice
        # Good 1-classes H: 2H + K effective.
        ones = good_one_classes(s)
        report.check_true(
            f"{s.name}: 2H+K effective for all {len(ones)} good 1-classes",
            all(eff(s, vadd(vscale(2, h), k_class)) for h in ones),
        )
        # Good pairs (S1, S2): 2S1+S2+K or 2S2+S1+K effective.
        pairs = good_zero_pairs(s)
        report.check_true(
            f"{s.name}: 2S1+S2+K or 2S2+S1+K effective for all "
            f"{len(pairs)} good pairs",
            all(
                eff(s, vadd(vadd(vscale(2, s1), s2), k_class))
                or eff(s, vadd(vadd(vscale(2, s2), s1), k_class))
                for s1, s2 in pairs
            ),
        )
        if degree <= 4:
            report.check_true(
                f"{s.name}: K+2H-C' or K+2H-C'' effective for all good "
                "line triples",
                _check_line_triples(s, k_class),
            )
        if degree == 3:
            goods = sorted(good_zero_classes(s))
            # S, S' individually good with S.S' = 1: S+S'+K effective.
            report.check_true(
                f"{s.name}: S+S'+K effective for good 0-class pairs",
                all(
                    eff(s, vadd(vadd(s1, s2), k_class))
                    for i, s1 in enumerate(goods)
                    for s2 in goods[i + 1 :]
                    if lat.intersect(s1, s2) == 1
                ),
            )
            # Triangles in the good-pair graph: one of the three sums works.
            report.check_true(
                f"{s.name}: triangle claim for good pairs",
                _check_pair_triangles(s, pairs, k_class),
            )
    if degree == 3:
        exceptions = set()
        for s in catalog.entries:
            for d in sorted(good_zero_classes(s)):
                if not eff(s, vadd(vscale(2, d), k_class)):
                    exceptions.add(
                        (_type_label(s.name), format_divisor(s.lattice, d))
                    )
        printed = {
            (label, format_divisor(PicardLattice.standard(3),
                                   parse_divisor(PicardLattice.standard(3), t)))
            for label, t in PROP_2SK_EXCEPTIONS
        }
        report.check("exceptions to 2S+K effective", printed, exceptions)
    return report


def _check_line_triples(s: SurfaceModel, k_class: Divisor) -> bool:
    """C in I^red, C', C'' lines with CC'=CC''=1, C'C''=0, H=C+C'+C'' good
    => K+2H-C' or K+2H-C'' effective."""
    lat = s.lattice
    lines = sorted(lat.enumerate_classes(-1))
    index = {c: i for i, c in enumerate(lines)}
    m = [[lat.intersect(a, b) for b in lines] for a in lines]
    irr = [index[c] for c in sorted(s.irr_lines_set())]
    red = [index[c] for c in sorted(s.red_lines_set())]
    for ci in red:
        partners = [j for j in range(len(lines)) if m[ci][j] == 1]
        for a in range(len(partners)):
            for b in range(a + 1, len(partners)):
                j, k = partners[a], partners[b]
                if m[j][k] != 0:
                    continue
                h = vadd(vadd(lines[ci], lines[j]), lines[k])
                if any(
                    m[ci][t] + m[j][t] + m[k][t] < 1 for t in irr
                ):
                    continue
                base = vadd(k_class, vscale(2, h))
                if not (
                    is_effective(s, vsub(base, lines[j]))[0]
                    or is_effective(s, vsub(base, lines[k]))[0]
                ):
                    return False
    return True


def _check_pair_triangles(s: SurfaceModel, pairs, k_class: Divisor) -> bool:
    """All three pairs good => one of K+S+S', K+S+S'', K+S'+S'' effective."""
    pair_set = set(pairs)
    members = sorted({d for p in pairs for d in p})
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if (members[i], members[j]) not in pair_set:
                continue
            for k in range(j + 1, len(members)):
                if (
                    (members[i], members[k]) not in pair_set
                    or (members[j], members[k]) not in pair_set
                ):
                    continue
                sums = [
                    vadd(vadd(members[i], members[j]), k_class),
                    vadd(vadd(members[i], members[k]), k_class),
                    vadd(vadd(members[j], members[k]), k_class),
                ]
                if not any(is_effective(s, d)[0] for d in sums):
                    return False
    return True


# -- classification of cyclic strong exceptional systems ----------------

#: Uniform toric systems by degree (shorthand on the standard lattice).
TABLE9_SYSTEM_TEXTS = {
    9: "L,L,L",
    7: "L1,E1,L12,E2,L2",
    6: "L13,E1,L12,E2,L23,E3",
    5: "L134,E4,E1-E4,L12,E2,L23,E3",
    4: "L134,E4,E1-E4,L12,E2-E5,E5,L235,E3",
    3: "E2-E4,L125,E5,E1-E5,L136,E6,E3-E6,L234,E4",
}

#: Surface types carrying the uniform system, per degree.
TABLE9_TYPES = {
    7: ("dP", "A1"),
    6: ("dP", "A1,4", "A1,3", "2A1", "A2", "A1+A2"),
    5: ("dP", "A1", "2A1", "A2", "A1+A2"),
    4: (
        "dP",
        "A1",
        "2A1,9",
        "2A1,8",
        "A2",
        "3A1",
        "A1+A2",
        "A3,4",
        "4A1",
        "2A1+A2",
        "A1+A3",
        "2A1+A3",
    ),
    3: (
        "dP",
        "A1",
        "2A1",
        "A2",
        "3A1",
        "A1+A2",
        "4A1",
        "2A1+A2",
        "2A2",
        "A1+2A2",
        "3A2",
    ),
}

#: The cyclic (-2)-windows of the uniform systems, as printed.
TABLE9_ROOT_WINDOW_TEXTS = {
    5: "L134,E1-E4",
    4: "L134,E1-E4,E2-E5,L235",
    3: "E2-E4,L125,L145,E1-E5,L136,L356,E3-E6,L234,L246",
}

#: Surfaces with no cyclic strong exceptional system:
#: (degree, type, reduction type, blown-up point) with the degree-5 rows
#: proven directly and the rest reduced by blow-down to the row above.
TABLE10_ROWS = (
    (5, "A3", None, None),
    (5, "A4", None, None),
    (4, "A3,5", "A3", "general"),
    (4, "A4", "A4", "general"),
    (4, "D4", "A3", "general on L12"),
    (4, "D5", "A4", "general on E4"),
    (3, "A3", "A3,5", "general"),
    (3, "A1+A3", "A3,5", "general on E1"),
    (3, "A4", "A4", "general"),
    (3, "D4", "D4", "general"),
    (3, "2A1+A3", "A3,5", "E1 meet Q"),
    (3, "A1+A4", "A4", "general on Q"),
    (3, "A5", "A4", "general on E5"),
    (3, "D5", "D5", "general"),
    (3, "A1+A5", "A4", "E5 meet Q"),
    (3, "E6", "D5", "general on E5"),
)

#: Strong left-orthogonal roots used in the direct degree-5 argument.
DEGREE5_SLO_ROOTS = {
    "A3": "L123,L124,L134,L234",
    "A4": "",
}


def verify_cyclic_strong_classification() -> Report:
    """Positive and negative halves of the classification tables."""
    report = Report("cyclic strong exceptional classification")

    def windows_in_range(A: ToricSystem) -> bool:
        # All cyclic window r-values in [-1, d-3]: then A is cyclic strong
        # exceptional with no effectiveness input at all.
        return all(
            -1 <= A.window_square(k, l) <= A.lattice.degree - 3
            for k, l, _ in cyclic_windows(A.n)
        )

    # The plane: (L, L, L) on the rank-1 lattice.
    lat9 = PicardLattice.standard(9)
    a9 = ToricSystem(lat9, parse_divisor_list(lat9, TABLE9_SYSTEM_TEXTS[9]))
    report.check_true("P2 system window r-values all in [-1, d-3]",
                      windows_in_range(a9))

    # Hirzebruch lattice: (F, G, F, G) works on F0 and on F2 alike, since
    # every cyclic window has square 0, 2 or 4, within [-1, d-3] = [-1, 5].
    hz = PicardLattice.hirzebruch()
    f = (1, 0)
    g = (0, 1)
    hz_sys = ToricSystem(hz, (f, g, f, g))
    report.check_true("F0/F2 system window r-values all in [-1, d-3]",
                      windows_in_range(hz_sys))
    # No second system on F2: a squares sequence (0,2,0,-2) forces the
    # fourth term to be one of the two (-2)-classes +-(F - G), and F2's
    # irreducible (-2)-curve G - F is effective, so no such system is
    # cyclic strong exceptional on F2.
    minus_two = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if hz.square((a, b)) == -2 and hz.k_product((a, b)) == 0
    ]
    report.check("(-2)-classes on the Hirzebruch lattice",
                 {(1, -1), (-1, 1)}, set(minus_two))

    # F1: (L - E1, E1, L - E1, L) on the standard degree-8 lattice.
    lat8 = PicardLattice.standard(8)
    f1_sys = ToricSystem(lat8, parse_divisor_list(lat8, "L1,E1,L1,L"))
    report.check_true("F1 system window r-values all in [-1, d-3]",
                      windows_in_range(f1_sys))

    # Degrees 7-3: the uniform system on every listed surface type.
    for degree in (7, 6, 5, 4, 3):
        lat = PicardLattice.standard(degree)
        A = ToricSystem(lat, parse_divisor_list(lat, TABLE9_SYSTEM_TEXTS[degree]))
        expected_windows = TABLE9_ROOT_WINDOW_TEXTS.get(degree)
        if expected_windows is not None:
            computed = {
                A.window(k, l)
                for k, l, _ in cyclic_windows(A.n)
                if A.window_square(k, l) == -2
            }
            report.check(
                f"degree {degree} cyclic (-2)-windows",
                set(parse_divisor_list(lat, expected_windows)),
                computed,
            )
        catalog = catalog_load(degree)
        for label in TABLE9_TYPES[degree]:
            s = catalog.get(label)
            report.check_true(
                f"{s.name}: uniform system cyclic strong exceptional",
                is_cyclic_strong_exceptional(s, A).ok,
            )
        # Listed and excluded types partition the catalog.
        excluded = {t for d, t, _x, _p in TABLE10_ROWS if d == degree}
        listed = set(TABLE9_TYPES[degree])
        catalog_labels = {_type_label(s.name) for s in catalog.entries}
        report.check(
            f"degree {degree}: listed + excluded = all types",
            catalog_labels,
            listed | excluded,
        )

    # Direct negative results in degree 5.
    report.extend(verify_degree5_negative())

    # Remaining rows reduce by blow-down; check the reduction references.
    table10_keys = {(d, t) for d, t, _x, _p in TABLE10_ROWS}
    for degree, label, target, point in TABLE10_ROWS:
        if target is None:
            report.note(f"X_{{{degree},{label}}}", "no system (proved directly)")
            continue
        ok = (degree + 1, target) in table10_keys
        report.check_true(
            f"X_{{{degree},{label}}} reduces to X_{{{degree + 1},{target}}} "
            f"(point: {point})",
            ok,
        )
    return report


def verify_degree5_negative() -> Report:
    """Exhaustive search: no cyclic strong exceptional system on the
    degree-5 surfaces of types A3 and A4.

    Both length-7 cyclic strong admissible sequences are realized and
    their full 120-element Weyl orbits checked; shifts and symmetries of
    a cyclic strong system are again cyclic strong, so orbit
    representatives of the two sequences are exhaustive.
    """
    report = Report("degree-5 exhaustive negative search")
    lat = PicardLattice.standard(5)
    catalog = catalog_load(5)
    surfaces = [catalog.get("A3"), catalog.get("A4")]
    for label, expected_text in DEGREE5_SLO_ROOTS.items():
        s = catalog.get(label)
        slo = {r for r in lat.enumerate_classes(-2) if is_slo(s, r)}
        expected = set(parse_divisor_list(lat, expected_text))
        expected |= {vneg(d) for d in expected}
        report.check(f"R^slo(X_{{5,{label}}})", expected, slo)
    sequences = [TABLE_CYCLIC_STRONG["7a"], TABLE_CYCLIC_STRONG["7b"]]
    for seq in sequences:
        report.check_true(
            f"sequence {seq} is cyclic strong admissible",
            canonical_cyclic(seq)
            in {canonical_cyclic(v) for v in TABLE_CYCLIC_STRONG.values()},
        )
        A0 = find_system_with_squares(lat, seq)
        if A0 is None:
            raise InternalError(f"no toric system realizes {seq}")
        found = {s.name: 0 for s in surfaces}
        count = 0
        for A in weyl.orbit_of_toric_system(A0):
            count += 1
            for s in surfaces:
                if is_cyclic_strong_exceptional(s, A).ok:
                    found[s.name] += 1
        report.check(f"orbit size of {seq}", 120, count)
        for s in surfaces:
            report.check(
                f"{s.name}: cyclic strong systems with A^2 = {seq}",
                0,
                found[s.name],
            )
    return report


# -- class inventories and sequence tables ------------------------------

#: (|R(X)|, |I(X)|) per degree: root and (-1)-class counts of the lattice.
EXPECTED_CLASS_COUNTS = {
    7: (2, 3),
    6: (8, 6),
    5: (20, 10),
    4: (40, 16),
    3: (72, 27),
    2: (126, 56),
    1: (240, 240),
}


def verify_table1() -> Report:
    """Root and (-1)-class counts for every degree."""
    report = Report("class inventories by degree")
    for degree, (roots, lines) in sorted(
        EXPECTED_CLASS_COUNTS.items(), reverse=True
    ):
        lat = PicardLattice.standard(degree)
        report.check(
            f"degree {degree} |R(X)|", roots, len(lat.enumerate_classes(-2))
        )
        report.check(
            f"degree {degree} |I(X)|", lines, len(lat.enumerate_classes(-1))
        )
    return report


def verify_table3() -> Report:
    """The 15 cyclic strong admissible sequences up to shift/symmetry."""
    report = Report("cyclic strong admissible sequences")
    enumerated = {canonical_cyclic(a) for a in enumerate_cyclic_strong_admissible()}
    listed = {canonical_cyclic(a) for a in TABLE_CYCLIC_STRONG.values()}
    report.check("count up to shift/symmetry", 15, len(enumerated))
    report.check("enumeration matches the listed table", listed, enumerated)
    for name, a in sorted(TABLE_CYCLIC_STRONG.items()):
        report.check_true(f"row {name} admissible", is_admissible(a))
        report.check(f"row {name} sum", 12 - 3 * len(a), sum(a))
    return report


def verify_ixa_counts() -> Report:
    """|I(X,A)| = |I(X)| for every first-kind sequence of length >= 5."""
    report = Report("I(X,A) cardinalities for first-kind sequences")
    counts = []
    for name, a in sorted(TABLE_CYCLIC_STRONG.items()):
        n = len(a)
        if n < 5:
            continue
        degree = 12 - n
        got = len(compute_IXA_windows(a))
        counts.append(got)
        report.check(f"row {name} |I(X,A)|", EXPECTED_CLASS_COUNTS[degree][1], got)
    report.check(
        "multiset of cardinalities",
        sorted((3, 3, 6, 6, 6, 6, 10, 10, 16, 16, 16, 27)),
        sorted(counts),
    )
    return report


# -- Weyl order suite ---------------------------------------------------


def verify_weyl_orders() -> Report:
    """Group orders for degrees 7 down to 2 against the known values."""
    report = Report("Weyl group orders")
    for degree in (7, 6, 5, 4, 3, 2):
        report.check(
            f"|W| degree {degree}",
            EXPECTED_WEYL_ORDERS[degree],
            weyl.group_order(degree),
        )
    report.note("|W| degree 1", "696729600 (long-run mode; not enumerated here)")
    return report
