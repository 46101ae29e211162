"""Counterexample census over Weyl orbits.

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

Which windows each test takes is read off the squares sequence
(`toric.window_squares`).  Tests (1)-(3) are vectorized: every
(-2)-window of a toric system is a root and every I(X,A) window is a
(-1)-class, and W permutes these classes.  So every window carries a
class id: looked up exactly on the first layer, then carried down the
orbit tree, one simple reflection per layer.  The ids index bit masks
holding the truth tables of all surfaces.  Test (4) is one more gather:
the deep windows' classes are the W-orbits of the initial system's deep
window sums, carried down the tree like the others, and their verdicts on
every surface come from one pass of the batched anti-class effectiveness
kernel before the walk.
"""

from __future__ import annotations

import json
import math
import os
import time
import zipfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InputError, InternalError
from .picard import Divisor, PicardLattice, parse_divisor_list, vadd, vneg
from .surface import SurfaceModel, catalog_load
from .toric import (
    ToricSystem,
    compute_IXA,
    cyclic_windows,
    is_exceptional,
    is_ixa_window,
    is_strong_exceptional,
    low_entry_rotation,
    window_squares,
)
from .effectivity import anticlass_effective, is_effective, is_hole, root_stacks
from . import __version__, weyl

#: Weyl group orders by degree (root systems A1, A1+A2, A4, D5, E6, E7,
#: E8): the products of the invariant degrees.
EXPECTED_WEYL_ORDERS = {
    degree: math.prod(invariants)
    for degree, invariants in weyl.INVARIANT_DEGREES.items()
}


# -- sequence presets ---------------------------------------------------


@dataclass(frozen=True)
class SequencePreset:
    """A named second-kind squares sequence with its initial system."""

    name: str
    squares: tuple[int, ...]
    system_text: str

    @property
    def degree(self) -> int:
        return 12 - len(self.squares)

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
        SequencePreset("IIb-deg2", IIB_DEG2_SQUARES, SECTION13_SYSTEM_TEXT),
        SequencePreset(
            "VI-deg2",
            (-2, -2, -1, -2, 0, -2, -2, -2, -1, -4),
            "E2-E3,L127,E7,E1-E7,L-E1,L234,E4-E5,E5-E6,E6,E3-E4-E5-E6",
        ),
        SequencePreset(
            "V-deg2",
            (-2, -1, -1, 0, -2, -2, -2, -2, -1, -5),
            "E2-E3,L12,E1,L-E1,L234,E4-E5,E5-E6,E6-E7,E7,E3-E4-E5-E6-E7",
        ),
        SequencePreset(
            "IV-deg2",
            (-2, 0, 1, -2, -2, -2, -2, -2, -1, -6),
            "E1-E2,L-E1,L,L123,E3-E4,E4-E5,E5-E6,E6-E7,E7,E2-E3-E4-E5-E6-E7",
        ),
        SequencePreset(
            "IIIc-1-deg2",
            (-1, -2, -2, -2, 0, 0, -2, -2, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIc-2-deg2",
            (-1, -2, -2, -2, -2, 0, 0, -2, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,E2-E3,L-E2,L-E1,E1-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIc-3-deg2",
            (-1, -2, -2, -2, -2, -2, 0, 0, -1, -6),
            "E7,E5-E7,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L-E6,E6,L1234567",
        ),
        SequencePreset(
            "IIIa-deg2",
            (-1, -2, -2, -2, -2, -2, -2, 0, 1, -6),
            "E7,E6-E7,E5-E6,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L,L1234567",
        ),
        # Degree 1 (long-run only).
        SequencePreset(
            "VI-deg1",
            (-2, -2, -1, -2, 0, -2, -2, -2, -2, -1, -5),
            "E2-E3,L127,E7,E1-E7,L-E1,L234,E4-E5,E5-E6,E6-E8,E8,"
            "E3-E4-E5-E6-E8",
        ),
        SequencePreset(
            "V-deg1",
            (-2, -1, -1, 0, -2, -2, -2, -2, -2, -1, -6),
            "E2-E3,L12,E1,L-E1,L234,E4-E5,E5-E6,E6-E7,E7-E8,E8,"
            "E3-E4-E5-E6-E7-E8",
        ),
        SequencePreset(
            "IV-deg1",
            (-2, 0, 1, -2, -2, -2, -2, -2, -2, -1, -7),
            "E1-E2,L-E1,L,L123,E3-E4,E4-E5,E5-E6,E6-E7,E7-E8,E8,"
            "E2-E3-E4-E5-E6-E7-E8",
        ),
        SequencePreset(
            "IIIc-1-deg1",
            (-1, -2, -2, -2, -2, 0, 0, -2, -2, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIc-2-deg1",
            (-1, -2, -2, -2, 0, 0, -2, -2, -2, -1, -7),
            "E7,E5-E7,E4-E5,E3-E4,L-E3,L-E1,E1-E2,E2-E6,E6-E8,E8,L12345678",
        ),
        SequencePreset(
            "IIIc-3-deg1",
            (-1, -2, -2, -2, -2, -2, 0, 0, -2, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,E2-E3,L-E2,L-E1,E1-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIc-4-deg1",
            (-1, -2, -2, -2, -2, -2, -2, 0, 0, -1, -7),
            "E8,E7-E8,E5-E7,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L-E6,E6,L12345678",
        ),
        SequencePreset(
            "IIIa-deg1",
            (-1, -2, -2, -2, -2, -2, -2, -2, 0, 1, -7),
            "E8,E7-E8,E6-E7,E5-E6,E4-E5,E3-E4,E2-E3,E1-E2,L-E1,L,L12345678",
        ),
    ]
}


def section13_surface() -> SurfaceModel:
    """The degree-2 surface of the paper's explicit counterexample."""
    return catalog_load(2).get(SECTION13_SURFACE_LABEL)


def section13_system() -> ToricSystem:
    """The explicit counterexample, the IIb-deg2 preset's initial system."""
    return SEQUENCE_PRESETS["IIb-deg2"].initial_system()


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

    root_coeffs: np.ndarray  # [w2, n] 0/1, all (-2)-windows
    root_through_n: np.ndarray  # [w2] bool, cyclic (through position n)
    ixa_coeffs: np.ndarray  # [wI, n], the I(X,A) windows
    deep_coeffs: np.ndarray  # [wD, n], the windows of square <= -3

    @property
    def coeffs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.root_coeffs, self.ixa_coeffs, self.deep_coeffs


def _window_plan(a: tuple[int, ...]) -> _WindowPlan:
    n = len(a)
    k = low_entry_rotation(a)
    if k:
        raise InputError(
            f"the census needs the entry below -2 last: rotate {a} left by "
            f"{k} to {a[k:] + a[:k]}"
        )
    if a[-1] > -3:
        raise InputError(f"{a} is not of the second kind (a_n <= -3 required)")
    root_rows, ixa_rows, deep_rows = [], [], []
    for (_k, _l, pos), sq in zip(cyclic_windows(n), window_squares(a)):
        row = tuple(int(p in pos) for p in range(n))
        if sq == -2:
            root_rows.append(row)
        elif sq <= -3:
            if not row[-1]:
                raise InternalError("window of square <= -3 avoiding the last term")
            deep_rows.append(row)
        elif is_ixa_window(a, pos):
            if row[-1]:
                raise InternalError("I(X,A) window through the last term")
            ixa_rows.append(row)
    root, ixa, deep = (
        np.array(rows, dtype=np.int64).reshape(-1, n)
        for rows in (root_rows, ixa_rows, deep_rows)
    )
    return _WindowPlan(root, root[:, -1] == 1, ixa, deep)


# -- class ids and per-surface bit masks --------------------------------


@dataclass(frozen=True)
class _ClassTable:
    """The classes of the W-orbits through some seeds: the seeds first, in
    order, then the classes their reflections reach, breadth first.  A
    class's id is its position, `index` maps each class to its id, and
    `perm[i, c]` is the id of s_i(class c), s_i the i-th simple reflection
    of `weyl.simple_reflection_roots`.  Ids take the narrowest unsigned
    dtype that holds them: uint8 for the (-2)- or (-1)-classes (240 at
    most), up to uint32 for deep classes (88,560 for VI-deg1).
    """

    classes: np.ndarray  # [c, rank] int64
    index: dict[tuple[int, ...], int]
    perm: np.ndarray  # [generators, c]


@lru_cache(maxsize=None)
def _class_table(lattice: PicardLattice, seeds: tuple[Divisor, ...]) -> _ClassTable:
    index = {c: i for i, c in enumerate(dict.fromkeys(seeds))}
    perm: list[list[int]] = [[] for _ in weyl.simple_reflection_roots(lattice)]
    done = 0
    while done < len(index):  # reflect the classes found in the last round
        block = np.array(list(index)[done:], dtype=np.int64)
        done = len(index)
        for i, ids in enumerate(perm):
            image = block.copy()
            weyl.reflect_rows(image, i)
            ids += [index.setdefault(c, len(index)) for c in map(tuple, image.tolist())]
    table = _ClassTable(
        np.array(list(index), dtype=np.int64),
        index,
        np.array(perm, dtype=np.min_scalar_type(len(index) - 1)),
    )
    for arr in (table.classes, table.perm):
        arr.flags.writeable = False  # cached and shared by every caller
    return table


def _window_tables(A0: ToricSystem, plan: _WindowPlan) -> tuple[_ClassTable, ...]:
    """The class tables of the (-2)-, I(X,A) and deep windows of W.A0: all
    (-2)- and (-1)-classes of the lattice, and the W-orbits of A0's deep
    window sums (the r-spheres of the deep windows are not single orbits)."""
    lat = A0.lattice
    deep = plan.deep_coeffs @ np.array(A0.terms, dtype=np.int64)
    return (
        _class_table(lat, lat.enumerate_classes(-2)),
        _class_table(lat, lat.enumerate_classes(-1)),
        _class_table(lat, tuple(map(tuple, deep.tolist()))),
    )


def _window_sums(plan: _WindowPlan, part: np.ndarray):
    """int64 sums [m, w, rank] of the (-2)-, I(X,A) and deep windows of the
    systems part [m, n, rank] (any integer dtype)."""
    return tuple(c @ part for c in plan.coeffs)


def _layer_ids(plan, tables, layer: weyl.OrbitLayer, prev, test_mode: bool):
    """Class ids [N, w2], [N, wI] and [N, wD] of the windows of every system
    of the layer, in the dtypes of the `_window_tables` tables.

    Layer 0 is looked up exactly from its window sums.  On every later
    layer a row's windows are its parent's windows reflected by the row's
    generator i, so its ids are `perm[i, parent ids]`, with `prev` the ids
    of the previous layer.  Audit: the classes of the first row of every
    generator block must equal its window sums; under test_mode, those of
    every row.
    """
    arr = layer.payload
    chunks = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, arr.shape[0], _CHUNK_ROWS)]
    out = tuple(
        np.empty((arr.shape[0], c.shape[0]), dtype=t.perm.dtype)
        for t, c in zip(tables, plan.coeffs)
    )
    if layer.parents is None:  # the initial system alone
        kinds = ("(-2)-class", "(-1)-class", "deep-window class")
        for t, o, x, what in zip(tables, out, _window_sums(plan, arr), kinds):
            try:
                o[:] = [[t.index[tuple(v)] for v in row] for row in x.tolist()]
            except KeyError:
                raise InternalError(
                    f"window sum is not a {what} (invariant violated)"
                ) from None
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
    deep_anti: np.ndarray  # [cD] uint64: -D is effective


def _bits(verdicts) -> np.ndarray:
    """The uint64 masks [c] of boolean verdicts [c, surfaces]."""
    verdicts = np.asarray(verdicts, dtype=np.uint64)
    shifts = np.arange(verdicts.shape[1], dtype=np.uint64)
    return np.bitwise_or.reduce(verdicts << shifts, axis=1)


def _surface_masks(lattice, tables, surfaces, test_mode: bool) -> _SurfaceMasks:
    """The masks of the `_window_tables` classes.  The deep verdicts come
    from the batched anti-class kernel, a block of classes on every surface
    per call; under test_mode every one is checked against `is_effective`."""
    if len(surfaces) > 64:
        raise InputError(f"a census covers at most 64 surfaces, not {len(surfaces)}")
    roots, lines = ([tuple(c) for c in t.classes.tolist()] for t in tables[:2])
    effs = [s.effective_roots_set() for s in surfaces]
    # In degree 1 a (-1)-class C is slo iff C + K is not effective.
    line_fail = [
        [
            c in s.irr_lines_set()
            or (lattice.degree == 1 and vadd(c, lattice.canonical) in eff)
            for s, eff in zip(surfaces, effs)
        ]
        for c in lines
    ]
    stacks = root_stacks(surfaces)
    which = np.arange(len(surfaces))
    step = max(1, 1024 // len(surfaces))  # bounds the kernel's [B, rank, R] gathers
    deep_anti = []
    for lo in range(0, tables[2].classes.shape[0], step):
        anti = -tables[2].classes[lo : lo + step]
        deep_anti += anticlass_effective(
            stacks, np.repeat(anti, which.size, axis=0), np.tile(which, anti.shape[0])
        ).reshape(anti.shape[0], which.size).tolist()
        for d, row in zip(anti.tolist() if test_mode else (), deep_anti[lo:]):
            for s, fast in zip(surfaces, row):
                if is_effective(s, tuple(d)) != fast:
                    raise InternalError(
                        f"fast anti-class test disagrees with the general "
                        f"test on {tuple(d)} ({s.name})"
                    )
    return _SurfaceMasks(
        _bits([[vneg(r) in eff for eff in effs] for r in roots]),
        _bits([[r in eff for eff in effs] for r in roots]),
        _bits(line_fail),
        _bits(deep_anti),
    )


# -- stabilizers --------------------------------------------------------


@lru_cache(maxsize=None)
def stabilizer_elements(degree: int, simple_roots: tuple[Divisor, ...]):
    """`weyl.stabilizer_elements_of_root_set`, cached by the roots (never by
    a surface's name); None for a del Pezzo surface, stabilized by all of W."""
    if simple_roots:
        return weyl.stabilizer_elements_of_root_set(degree, simple_roots)
    return None


def stabilizer_table(degree: int) -> dict[str, tuple[weyl.WeylElement, ...] | None]:
    """`stabilizer_elements` of every catalog surface, by name."""
    return {
        s.name: stabilizer_elements(degree, s.simple_roots)
        for s in catalog_load(degree).entries
    }


def _stabilizer_order(s: SurfaceModel) -> int:
    order = EXPECTED_WEYL_ORDERS[s.degree]
    elements = stabilizer_elements(s.degree, s.simple_roots)
    if elements is not None and order % len(elements):
        raise InternalError(
            f"{s.name}: stabilizer order {len(elements)} does not divide |W| = {order}"
        )
    return order if elements is None else len(elements)


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
    `deep_tests` (per candidate, its deep windows in plan order up to the
    first with an effective anti-class, or all of them) and
    `deep_cross_checks` (under test_mode, the deep verdicts checked against
    `is_effective`: every deep class on every surface).  It times each
    phase in seconds: `orbit_s` (the orbit walk), `window_ids_s` (class
    tables and window class ids), `mask_tests_s` (tests (1)-(3)),
    `deep_tests_s` (test (4): the surface masks and the candidates' deep
    gathers), and in finalize `canonicalize_s` and `reverify_s` (0 without
    finalize); `representatives_verified` counts the representatives
    re-verified.
    """

    squares: tuple[int, ...]
    orbit_total: int
    complete: bool
    records: dict[tuple[str, str], CensusRecord]
    raw_counts: dict[tuple[str, str], int]
    stats: dict


_CHUNK_ROWS = 4096
#: Phase timers (seconds) of `CensusRun.stats` filled by the sweep.
SWEEP_TIMERS = ("orbit_s", "window_ids_s", "mask_tests_s", "deep_tests_s")


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
    row's failure bits.  Each (row, surface, mode) that passes is a
    candidate for test (4): its deep window ids gather `deep_anti`, and it
    is a counterexample when the surface's bit is clear in every one.  Only
    two layers of ids are held at a time, w2 + wI + wD ids per row each.

    A resumed sweep (`_load_checkpoint`) starts from the saved
    counterexamples and walks the orbit again from layer 0, testing only
    the layers after the saved one.

    Returns (orbit_total, store, stats) where store maps (surface name,
    mode) to the list of counterexample system arrays in deterministic
    orbit order.
    """
    plan = _window_plan(A0.squares())
    start = time.perf_counter()
    tables = _window_tables(A0, plan)
    built = time.perf_counter()
    masks = _surface_masks(A0.lattice, tables, surfaces, test_mode)
    stats = {"rows": 0, "deep_tests": 0, "deep_cross_checks": 0}
    stats.update(dict.fromkeys(SWEEP_TIMERS, 0.0))
    stats.update(window_ids_s=built - start, deep_tests_s=time.perf_counter() - built)
    if test_mode:
        stats["deep_cross_checks"] = masks.deep_anti.size * len(surfaces)
    noncyc = ~plan.root_through_n
    everyone = np.uint64((1 << len(surfaces)) - 1)
    bit_shifts = np.arange(len(surfaces), dtype=np.uint64)
    store: dict[tuple[str, str], list[np.ndarray]] = {
        (s.name, mode): [] for s in surfaces for mode in modes
    }
    candidates = np.zeros((len(modes), len(surfaces)), dtype=np.int64)

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
        ids = _layer_ids(plan, tables, layer, ids, test_mode)
        stats["window_ids_s"] += time.perf_counter() - start
        if layer.index <= done:
            continue
        for lo in range(0, arr.shape[0], _CHUNK_ROWS):
            start = time.perf_counter()
            ids2, idsI, idsD = (x[lo : lo + _CHUNK_ROWS] for x in ids)
            anti = np.bitwise_or.reduce(masks.root_anti[ids2], axis=1)
            eff2 = np.bitwise_or.reduce(masks.root_eff[ids2[:, noncyc]], axis=1)
            fail3 = np.bitwise_or.reduce(masks.line_fail[idsI], axis=1)
            base = ~(anti | fail3) & everyone
            for m, mode in enumerate(modes):
                ok = base & ~eff2 if mode == "strong" else base
                rows, which = np.nonzero((ok[:, None] >> bit_shifts) & np.uint64(1))
                candidates[m] += np.bincount(which, minlength=len(surfaces))
                tested = time.perf_counter()
                stats["mask_tests_s"] += tested - start
                # Test (4): hit[j, w] is the verdict of candidate j's surface
                # on its w-th deep window; the first hit ends its tests.
                bits = masks.deep_anti[idsD[rows]] >> bit_shifts[which, None]
                hit = (bits & np.uint64(1)).astype(bool)
                found = ~hit.any(axis=1)
                stats["deep_tests"] += int(
                    np.where(found, hit.shape[1], hit.argmax(axis=1) + 1).sum()
                )
                for row, t in zip((rows[found] + lo).tolist(), which[found].tolist()):
                    store[(surfaces[t].name, mode)].append(arr[row].copy())
                start = time.perf_counter()
                stats["deep_tests_s"] += start - tested
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

    The rows are indexed once by their exact int64 bytes.  One orbit at a
    time, the |Stab| images of the first row not yet seen are computed in
    one matmul, looked up and all marked seen.  Every image must be a
    counterexample, and neither two images nor two rows may be equal.

    The canonical representative of an orbit is the image whose stack,
    as little-endian int64 `tobytes()`, is the least byte string, and the
    representatives come in that order.  Low bytes compare first, so
    coefficients in -128..127 (every census orbit) are compared one by
    one as x mod 256: 0 < 1 < ... < 127 < -128 < ... < -1.
    """
    stack = np.stack(arrays).astype(np.int64)
    index = {row.tobytes(): i for i, row in enumerate(stack)}
    if len(index) != len(arrays):
        raise InternalError(
            "two counterexamples are the same system (invariant violated)"
        )
    group = np.array([el.images for el in elements], dtype=np.int64)  # v -> v @ g
    seen = np.zeros(len(arrays), dtype=bool)
    keys = []
    for i in range(len(arrays)):
        if seen[i]:
            continue
        images = [image.tobytes() for image in stack[i] @ group]
        members = [index.get(key) for key in images]
        if None in members:
            raise InternalError(
                "a stabilizer image of a counterexample is not a counterexample"
            )
        if len(set(members)) != len(members):
            raise InternalError(
                "two stabilizer images of a counterexample are the same system"
            )
        seen[members] = True
        keys.append(min(images))
    n, rank = stack.shape[1:]
    reps = []
    for key in sorted(keys):
        rep = np.frombuffer(key, dtype=np.int64).reshape(n, rank)
        reps.append(ToricSystem(lattice, tuple(map(tuple, rep.tolist()))))
    return tuple(reps)


def _verify_representatives(
    s: SurfaceModel, mode: str, reps: tuple[ToricSystem, ...]
) -> None:
    """Re-verify canonical representatives independently of the sweep.

    Each representative must pass the reference exceptionality checker,
    have I(X,A) inside I^red, and exhibit the hole property: at least one
    of the windows -A_n, -A_{n-1,n} is a hole in the effective cone.
    """
    red = s.red_lines_set()
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
            raise InternalError(
                f"census counterexample lacks the hole property on {s.name}"
            )


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
    under the reference checker.  `max_layers` with finalize is refused
    before the orbit is walked.

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
        preset = SEQUENCE_PRESETS[preset].initial_system()
    A0 = preset
    for mode in modes:
        if mode not in MODES:
            raise InputError(f"unknown census mode {mode!r}")
    if len(set(modes)) != len(modes):
        raise InputError(f"repeated mode in {tuple(modes)}")
    degree = A0.lattice.degree
    if surfaces is None:
        surfaces = catalog_load(degree).entries
    surfaces = tuple(surfaces)
    names = [s.name for s in surfaces]
    if len(set(names)) != len(names):
        raise InputError(f"repeated surface name in {names}")
    complete = max_layers is None
    if finalize and not complete:
        raise InputError("cannot finalize a truncated census run")
    orbit_total, store, stats = _census_sweep(
        A0, surfaces, tuple(modes), test_mode, max_layers, checkpoint_dir, resume
    )
    if complete and orbit_total != EXPECTED_WEYL_ORDERS[degree]:
        raise InternalError(
            f"orbit size {orbit_total} != |W| = {EXPECTED_WEYL_ORDERS[degree]}"
        )
    raw_counts = {key: len(rows) for key, rows in store.items()}
    records: dict[tuple[str, str], CensusRecord] = {}
    stats.update(canonicalize_s=0.0, reverify_s=0.0, representatives_verified=0)
    if finalize:
        squares = A0.squares()
        by_name = {s.name: s for s in surfaces}
        for (sname, mode), rows in sorted(store.items()):
            reps = ()
            if rows:
                elements = stabilizer_elements(degree, by_name[sname].simple_roots)
                if elements is None:
                    raise InternalError(
                        "counterexamples on a surface without (-2)-curves"
                    )
                start = time.perf_counter()
                reps = _canonicalize(A0.lattice, rows, elements)
                verify = time.perf_counter()
                _verify_representatives(by_name[sname], mode, reps)
                stats["canonicalize_s"] += verify - start
                stats["reverify_s"] += time.perf_counter() - verify
                stats["representatives_verified"] += len(reps)
            if mode == "strong" and len(rows) >= 0.003 * orbit_total:
                raise InternalError(
                    f"{sname}: counterexample fraction exceeds 0.3%"
                )
            records[(sname, mode)] = CensusRecord(
                sname, squares, mode, len(rows), _stabilizer_order(by_name[sname]),
                len(reps), reps,
            )
    return CensusRun(
        squares=A0.squares(),
        orbit_total=orbit_total,
        complete=complete,
        records=records,
        raw_counts=raw_counts,
        stats=stats,
    )
