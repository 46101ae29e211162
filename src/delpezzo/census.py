"""Counterexample census over Weyl orbits.

The census streams the whole W-orbit of an initial toric system A0 and
applies four tests to every system on every surface of the degree:

  (1) no cyclic (-2)-window (through position n) is anti-effective;
  (2) no non-cyclic (-2)-window is effective or anti-effective
      (anti-effective only, in exceptional mode);
  (3) every window in I(X,A) lies in I^red(X);
  (4) no window of square <= -3 is anti-effective.

A system passing all four is a counterexample: a (strong) exceptional
toric system that is not an augmentation in any sense.  Counting is up
to the stabilizer of the surface's set of irreducible (-2)-curves
("essentially different" systems).

Why tests (1), (2) and (4) are the definition (every non-cyclic window
lo, or slo in strong mode; `toric.is_exceptional`): each non-cyclic
window W' is -K - W for W the complementary window, which runs through
position n, and W'^2 = d - 4 - W^2.  A window with square in [-1, d - 3]
is always lo and slo.  For W'^2 >= d - 2, that is W^2 <= -2, both lo(W')
and slo(W') hold iff K + W' = -W is not effective: test (1) when
W^2 = -2, test (4) when W^2 <= -3.  The non-cyclic windows of square -2
are test (2); none has a lower square, as only a_n is below -2.  Test
(3) excludes the augmentations.  In degree 1 an I(X,A) window W' is
-K - W for W a cyclic (-2)-window, so slo(W') ("-W is not effective")
is already test (1).

Which windows each test takes is read off the squares sequence
(`toric.window_squares`).  The orbit is walked as the elements w of W
(`weyl.orbit_layers`): the system w.A0 has the terms `terms @ w` and the
window sums `S @ w`, S the window sums of A0, so A0 enters the walk only
as S, and a system is formed only for a row the census finds.  Tests
(1)-(3) are vectorized: every (-2)-window of a toric system is a root and
every I(X,A) window is a (-1)-class, and W permutes these classes.  So
every window carries a class id: looked up exactly on the first layer
(the identity, where the sums are S), then carried down the tree of W,
one simple reflection per layer.  The ids index bit masks holding the
truth tables of all surfaces.  Test (4) is one more gather: the deep
windows' classes are the W-orbits of A0's deep window sums, carried down
the tree like the others.  Their verdicts come from the batched
anti-class effectiveness kernel on demand: a (class, surface) pair is
evaluated once, in the first kernel pass after a row that passes tests
(1)-(3) on that surface has the class.  The rows wait for their verdicts
across layers, so one pass serves many layers.

Tests (1) and (3) run on every row.  Few rows pass both on even one
surface (0.67% of the IIb-deg2 orbit), so tests (2)-(4) run on those
live rows only; only a row with a find is split into its surfaces.

The same sweep counts the cyclic strong exceptional systems of a
first-kind sequence (every square >= -2; Tables 9 and 10) in the
`cyclic-strong` mode.  Such a system's windows all have square >= -2 and
it is cyclic strong exceptional iff no (-2)-window is effective or
anti-effective, so its plan holds the (-2)-windows alone and test (2)'s
effective gather takes every one of them.  Its counts are raw counts per
surface, and it keeps no rows: there is nothing to finalize or checkpoint.
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
from .picard import Divisor, PicardLattice, parse_divisor_list, vneg
from .surface import SurfaceModel, catalog_load
from .toric import (
    ToricSystem,
    classify_sequence,
    compute_IXA,
    compute_IXA_windows,
    cyclic_windows,
    find_system_with_squares,
    is_exceptional,
    is_int_list,
    is_ixa_window,
    is_strong_exceptional,
    low_entry_rotation,
    window_squares,
)
from .effectivity import (
    anticlass_effective,
    decided,
    is_hole,
    root_stacks,
)
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


def _check_modes(squares: tuple[int, ...], modes) -> None:
    """Refuse an unknown mode and a mode that the kind of `squares` does
    not take: `cyclic-strong` counts the systems of a first-kind sequence
    (every square >= -2), `strong` and `exceptional` look for
    counterexamples of a second-kind one."""
    first_kind = min(squares) >= -2
    for mode in modes:
        if mode not in MODES + ("cyclic-strong",):
            raise InputError(f"unknown census mode {mode!r}")
        if (mode == "cyclic-strong") != first_kind:
            need = (
                "first kind (every square >= -2)"
                if mode == "cyclic-strong"
                else "second kind (a_n <= -3)"
            )
            raise InputError(f"the {mode} mode needs a sequence of the {need}: {squares}")


# -- window plan --------------------------------------------------------


@dataclass(frozen=True)
class _WindowPlan:
    """Precomputed windows of a squares sequence.

    Coefficient rows select the terms of each window, so the window sums
    of a system [n, rank] are `coeffs @ terms`, and those of w.A0 are A0's
    sums @ w.  A sweep looks them up as class ids on layer 0 and carries
    the ids down the tree of W after that (see `_layer_ids`).  The deep
    windows (square <= -3) all run through the last term and take test
    (4).  A first-kind sequence has (-2)-windows only.
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
    second_kind = a[-1] <= -3
    root_rows, ixa_rows, deep_rows = [], [], []
    for (_k, _l, pos), sq in zip(cyclic_windows(n), window_squares(a)):
        row = tuple(int(p in pos) for p in range(n))
        if sq == -2:
            root_rows.append(row)
        elif sq <= -3:
            if not row[-1]:
                raise InternalError("window of square <= -3 avoiding the last term")
            deep_rows.append(row)
        elif second_kind and is_ixa_window(a, pos):
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
        np.array(list(index), dtype=np.int64).reshape(-1, lattice.rank),
        index,
        np.array(perm, dtype=np.min_scalar_type(max(len(index) - 1, 0))),
    )
    for arr in (table.classes, table.perm):
        arr.flags.writeable = False  # cached and shared by every caller
    return table


def _window_tables(lattice: PicardLattice, S0) -> tuple[_ClassTable, ...]:
    """The class tables of the (-2)-, I(X,A) and deep windows of W.A0, S0
    A0's window sums [w, rank] of the three kinds: all (-2)- and
    (-1)-classes of the lattice, and the W-orbits of the deep sums S0[2]
    (the r-spheres of the deep windows are not single orbits)."""
    return (
        _class_table(lattice, lattice.enumerate_classes(-2)),
        _class_table(lattice, lattice.enumerate_classes(-1)),
        _class_table(lattice, tuple(map(tuple, S0[2].tolist()))),
    )


def _layer_ids(S0, tables, layer: weyl.OrbitLayer, prev):
    """Class ids [w2, N], [wI, N] and [wD, N] of the windows of the system
    w.A0 of every element w of the layer, window-major, in the dtypes of
    the `_window_tables` tables; S0 holds A0's window sums.

    Layer 0 is looked up exactly from its window sums, S0 @ w.  On every
    later layer a row's windows are its parent's windows reflected by the
    row's generator i, so its ids are `perm[i, parent ids]`, with `prev`
    the ids of the previous layer.  That makes every row's ids exact by
    induction, as `perm` sends each class to its reflection and each row
    is its parent's reflection; the tests check both on whole tables and
    orbits.  Audit: the classes of the first row of every non-empty
    generator block must equal its window sums.
    """
    w = layer.elements
    out = tuple(
        np.empty((s.shape[0], w.shape[0]), dtype=t.perm.dtype)
        for t, s in zip(tables, S0)
    )
    if layer.parents is None:  # the identity alone
        kinds = ("(-2)-class", "(-1)-class", "deep-window class")
        for t, o, x, what in zip(tables, out, (s @ w for s in S0), kinds):
            try:
                o.T[:] = [[t.index[tuple(v)] for v in row] for row in x.tolist()]
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
                o[:, lo : lo + parents.size] = t.perm[i].take(p.take(parents, axis=1))
    rows = blocks[:-1][np.diff(blocks) > 0]
    if not all(
        np.array_equal(t.classes[o[:, rows].T], s @ w[rows])
        for t, o, s in zip(tables, out, S0)
    ):
        raise InternalError(
            f"propagated window class ids differ from the window sums "
            f"on orbit layer {layer.index} (invariant violated)"
        )
    return out


@dataclass(frozen=True)
class _SurfaceMasks:
    """The truth tables of tests (1)-(3) stacked as bits: bit t of a class
    id's mask is the verdict of surface t on that class.  The masks take
    the narrowest unsigned dtype with a bit per surface (`_mask_dtype`)."""

    root_anti: np.ndarray  # [c2]: -r is effective
    root_eff: np.ndarray  # [c2]: r is effective
    line_fail: np.ndarray  # [c1]: irreducible


def _mask_dtype(surfaces: int) -> np.dtype:
    """The narrowest of uint8, uint16, uint32 and uint64 with a bit per
    surface."""
    return np.dtype(f"uint{max(8, 1 << (surfaces - 1).bit_length())}")


def _bits(verdicts, surfaces: int) -> np.ndarray:
    """The `_mask_dtype` masks [c] of boolean verdicts [c, surfaces], c >= 0."""
    dtype = _mask_dtype(surfaces)
    verdicts = np.asarray(verdicts, dtype=dtype).reshape(len(verdicts), surfaces)
    shifts = np.arange(surfaces, dtype=dtype)
    return np.bitwise_or.reduce(verdicts << shifts, axis=1)


@lru_cache(maxsize=None)
def _surface_masks(
    lattice: PicardLattice, surfaces: tuple[SurfaceModel, ...]
) -> _SurfaceMasks:
    """The masks of all (-2)- and (-1)-classes of the lattice, the first two
    `_window_tables` tables, on `surfaces` (64 at most)."""
    if len(surfaces) > 64:
        raise InputError(f"a census covers at most 64 surfaces, not {len(surfaces)}")
    roots, lines = (
        _class_table(lattice, lattice.enumerate_classes(r)).classes.tolist()
        for r in (-2, -1)
    )
    effs = [s.effective_roots_set() for s in surfaces]
    irrs = [s.irr_lines_set() for s in surfaces]
    masks = _SurfaceMasks(
        _bits([[r in eff for eff in effs] for r in map(vneg, roots)], len(surfaces)),
        _bits([[r in eff for eff in effs] for r in map(tuple, roots)], len(surfaces)),
        _bits([[c in irr for irr in irrs] for c in map(tuple, lines)], len(surfaces)),
    )
    for arr in (masks.root_anti, masks.root_eff, masks.line_fail):
        arr.flags.writeable = False  # cached and shared by every caller
    return masks


#: (class, surface) pairs per anti-class kernel call: bounds its
#: [B, rank, R] gathers.
_KERNEL_PAIRS = 1024


class _DeepVerdicts:
    """Test (4)'s verdicts on the deep classes, computed on demand.

    Bit t of `anti[c]` says whether -D is effective on surface t, D the
    deep class c, once bit t of `known[c]` is set; both take
    `_mask_dtype`.  `evaluated` counts the (class, surface) pairs the
    kernel has taken and `calls` its calls.
    """

    def __init__(self, classes: np.ndarray, surfaces):
        self.classes, self.surfaces = classes, surfaces
        self.stacks = root_stacks(surfaces)
        self.anti = np.zeros(classes.shape[0], dtype=_mask_dtype(len(surfaces)))
        self.known = np.zeros_like(self.anti)
        self.evaluated = self.calls = 0

    def resolve(self, need: np.ndarray) -> None:
        """Compute the verdicts whose bits are set in `need` [cD] and not
        yet known."""
        todo = need & ~self.known
        ids = np.flatnonzero(todo)
        shifts = np.arange(len(self.surfaces), dtype=todo.dtype)
        # got[k, t]: the verdict of class ids[k] on surface t is wanted
        got = ((todo.take(ids)[:, None] >> shifts) & todo.dtype.type(1)) != 0
        rows, which = np.nonzero(got)
        anti = -self.classes[ids[rows]]
        for lo in range(0, rows.size, _KERNEL_PAIRS):
            part = slice(lo, lo + _KERNEL_PAIRS)
            verdicts = anticlass_effective(self.stacks, anti[part], which[part])
            self.calls += 1
            got[rows[part], which[part]] = verdicts
        self.anti[ids] |= _bits(got, len(self.surfaces))
        self.known |= todo
        self.evaluated += rows.size


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
    `live_rows` (rows passing tests (1) and (3) on at least one surface,
    the only rows tests (2)-(4) see), `deep_candidates` (rows passing
    tests (1)-(3), keyed "surface/mode"), `deep_tests` (per candidate, its
    deep windows in plan order up to the first with an effective
    anti-class, or all of them), `deep_verdicts` (the (deep class,
    surface) pairs the anti-class kernel evaluated: those some candidate
    reaches, each once) and `deep_kernel_calls` (the anti-class kernel's
    calls: a flush of held rows makes one per `_KERNEL_PAIRS` verdicts or
    part of that).  It times each phase in seconds:
    `orbit_s` (the orbit walk), `window_ids_s` (class tables and
    window class ids), `mask_tests_s` (tests (1)-(3), their truth tables
    and holding the live rows), `deep_tests_s` (test (4): gathering the
    verdicts the held rows read, the kernel and the held rows' deep
    gathers), and in finalize
    `canonicalize_s` and `reverify_s` (0 without finalize).  Finalize
    counts `representatives_verified` (the representatives re-verified),
    `reverify_windows` (the windows their re-verification reads: every
    non-cyclic window, every I(X,A) window and one or two hole windows
    each) and `reverify_decisions` (the deciders' evaluations in it, the
    misses of `effectivity`'s memo; a class decided earlier in the
    process, on a surface with the same simple roots, costs none).
    """

    squares: tuple[int, ...]
    orbit_total: int
    complete: bool
    records: dict[tuple[str, str], CensusRecord]
    raw_counts: dict[tuple[str, str], int]
    stats: dict


#: Rows per chunk of the id propagation and the tests; the sweep also
#: flushes its held live rows once it holds this many.
_CHUNK_ROWS = 4096
#: Phase timers (seconds) of `CensusRun.stats` filled by the sweep.
SWEEP_TIMERS = ("orbit_s", "window_ids_s", "mask_tests_s", "deep_tests_s")


#: The census checkpoint's file name inside a checkpoint directory.
_CHECKPOINT = "census.npz"


def _save_checkpoint(directory, config: dict, index: int, store, like) -> None:
    """Write, atomically, the last finished layer and the counterexample
    rows of every (surface, mode) so far, in `store` order; `like` is an
    array of systems [0, n, rank] giving the rows' shape and dtype when
    there are none."""
    path = Path(directory) / _CHECKPOINT
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [block for found in store.values() for block in found]
    with open(f"{path}.tmp", "wb") as fh:
        np.savez(
            fh,
            config=np.array(json.dumps(config)),
            layer=np.int64(index),
            counts=np.array(
                [sum(map(len, found)) for found in store.values()], dtype=np.int64
            ),
            rows=np.concatenate([like[:0], *blocks]),
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
        found.append(rows[hi - count : hi])
    return index


def _census_sweep(
    A0: ToricSystem,
    surfaces: tuple[SurfaceModel, ...],
    modes: tuple[str, ...],
    max_layers: int | None,
    checkpoint_dir=None,
    resume: bool = False,
):
    """Stream the orbit of A0 and collect counterexample systems (in the
    cyclic-strong mode, the cyclic strong exceptional systems).

    The walk yields the elements w of W (`weyl.orbit_layers`); A0 enters
    it only as its window sums S0 = `coeffs @ terms`, one array per window
    kind.  The tests run on whole chunks for all surfaces at once: the
    window class ids of each layer (`_layer_ids`, carried down the tree of
    W, window-major) gather the surfaces' bit masks, ORed over each test's
    windows.  Tests (1) and (3) come first; tests (2) and (4) take only
    the live rows, those with a surface left.  Only two layers of ids are
    held at a time, w2 + wI + wD ids per row each, and the orbit walk's
    memory check counts them.

    Test (4) is deferred across layers.  Each layer's live rows are held
    with their elements w, their wD deep ids and each mode's ok.  A flush
    gathers the deep verdicts the held rows read and the kernel has not
    given yet, computes them (`_DeepVerdicts`, one kernel pass) and runs
    test (4) on the held rows in orbit order; the systems `terms @ w` of
    the rows found are formed there, in the integer type that
    `weyl.orbit_bound` proves for the orbit of A0 (int8 for every preset).
    A flush comes after the first layer that leaves at least `_CHUNK_ROWS`
    live rows held, and after the last tested layer; with `checkpoint_dir`
    it writes the checkpoint, the flushed layer as its last finished one.  The modes
    must fit A0's kind (`_check_modes`).

    A resumed sweep (`_load_checkpoint`) starts from the saved
    counterexamples and walks the orbit again from layer 0, testing only
    the layers after the saved one.

    Returns (orbit_total, raw_counts, store, stats) where store maps
    (surface name, mode) to a list of blocks [k, n, rank] of counterexample
    systems (none in the cyclic-strong mode), each chunk's finds in one
    block, in deterministic orbit order.
    """
    plan = _window_plan(A0.squares())
    terms = np.array(A0.terms, dtype=np.int64)
    S0 = tuple(c @ terms for c in plan.coeffs)
    bound = int(weyl.orbit_bound(A0.lattice, terms).max())
    no_systems = np.zeros((0, *terms.shape), dtype=weyl.narrowest_int_type(bound))
    bit = _bits(np.eye(len(surfaces), dtype=bool), len(surfaces))  # surface t's bit
    everyone = np.bitwise_or.reduce(bit)
    start = time.perf_counter()
    tables = _window_tables(A0.lattice, S0)
    built = time.perf_counter()
    masks = _surface_masks(A0.lattice, surfaces)
    masked = time.perf_counter()
    deep = _DeepVerdicts(tables[2].classes, surfaces)
    stats = {"rows": 0, "live_rows": 0, "deep_tests": 0}
    stats.update(dict.fromkeys(SWEEP_TIMERS, 0.0))
    stats.update(
        window_ids_s=built - start,
        mask_tests_s=masked - built,
        deep_tests_s=time.perf_counter() - masked,
    )
    # test (2)'s effective gather: the non-cyclic (-2)-windows, or all of
    # them in the cyclic-strong mode
    eff_cols = np.flatnonzero(~plan.root_through_n | ("cyclic-strong" in modes))
    store: dict[tuple[str, str], list[np.ndarray]] = {  # blocks [k, n, rank]
        (s.name, mode): [] for s in surfaces for mode in modes
    }

    config = {  # what a checkpoint is bound to
        "terms": [list(t) for t in A0.terms],
        "surfaces": [[s.name, [list(r) for r in s.simple_roots]] for s in surfaces],
        "modes": list(modes),
        "version": __version__,
    }
    # the last layer whose counterexamples are in store
    done = _load_checkpoint(checkpoint_dir, config, store, max_layers) if resume else -1
    # per (surface, mode) in store order; a resumed sweep counts its saved finds
    candidates = np.zeros((len(surfaces), len(modes)), dtype=np.int64)
    counts = np.reshape([sum(map(len, f)) for f in store.values()], candidates.shape)
    held = []  # per chunk with live rows: their elements, deep ids, each mode's ok

    def flush(index: int) -> None:
        """Test (4) on the held rows; then the checkpoint, as of layer index."""
        start = time.perf_counter()
        # A held row reads its deep classes' verdicts on the surfaces of
        # some mode's ok: the kernel gives those it has not given yet.
        need = np.zeros_like(deep.known)
        for _, idsL, oks in held:
            asked = ~deep.known.take(idsL) & np.bitwise_or.reduce(oks)
            pending = asked != 0
            np.bitwise_or.at(need, idsL[pending], asked[pending])
        deep.resolve(need)
        for elements, idsL, oks in held:
            # unseen[w] holds the surfaces on which none of the first w deep
            # windows is anti-effective.
            unseen = np.zeros((idsL.shape[0] + 1, idsL.shape[1]), dtype=need.dtype)
            np.bitwise_or.accumulate(deep.anti.take(idsL), axis=0, out=unseen[1:])
            np.invert(unseen, out=unseen)
            for m, (mode, ok) in enumerate(zip(modes, oks)):
                candidates[:, m] += ((ok[:, None] & bit) != 0).sum(axis=0)
                stats["deep_tests"] += int(np.bitwise_count(ok & unseen[:-1]).sum())
                found = ok & unseen[-1]
                rows = np.flatnonzero(found)  # ascending, so orbit order is kept
                hits = (found.take(rows)[:, None] & bit) != 0
                counts[:, m] += hits.sum(axis=0)
                if mode != "cyclic-strong":  # it keeps counts alone
                    systems = (terms @ elements[rows]).astype(no_systems.dtype)
                    for t in np.flatnonzero(hits.any(axis=0)).tolist():
                        store[(surfaces[t].name, mode)].append(systems[hits[:, t]])
        held.clear()
        stats["deep_tests_s"] += time.perf_counter() - start
        if checkpoint_dir is not None:
            _save_checkpoint(checkpoint_dir, config, index, store, no_systems)

    orbit_total = 0
    ids = None
    flushed = tested = done  # the last layers flushed and tested
    # two layers of window class ids are held beside the orbit's own arrays
    id_bytes = sum(t.perm.itemsize * s.shape[0] for t, s in zip(tables, S0))
    layers = weyl.orbit_layers(A0.lattice, max_layers=max_layers, row_bytes=id_bytes)
    while True:
        start = time.perf_counter()
        layer = next(layers, None)
        stats["orbit_s"] += time.perf_counter() - start
        if layer is None:
            break
        orbit_total = layer.total_so_far
        w = layer.elements
        stats["rows"] += w.shape[0]
        start = time.perf_counter()
        ids = _layer_ids(S0, tables, layer, ids)
        stats["window_ids_s"] += time.perf_counter() - start
        if layer.index <= done:
            continue
        tested = layer.index
        for lo in range(0, w.shape[0], _CHUNK_ROWS):
            start = time.perf_counter()
            ids2, idsI, idsD = (x[:, lo : lo + _CHUNK_ROWS] for x in ids)
            # A row failing (1) or (3) on every surface has no bit in base,
            # nor in either mode's ok: only the live rows go further.
            fail = np.bitwise_or.reduce(masks.root_anti.take(ids2), axis=0)
            fail |= np.bitwise_or.reduce(masks.line_fail.take(idsI), axis=0)
            live = np.flatnonzero(fail != everyone)
            stats["live_rows"] += live.size
            base = ~fail.take(live) & everyone
            eff2 = masks.root_eff.take(ids2[eff_cols[:, None], live])
            strict = base & ~np.bitwise_or.reduce(eff2, axis=0)  # strong, cyclic-strong
            oks = [base if mode == "exceptional" else strict for mode in modes]
            if live.size:
                held.append((w[lo + live], idsD[:, live], oks))
            stats["mask_tests_s"] += time.perf_counter() - start
        if sum(len(elements) for elements, _, _ in held) >= _CHUNK_ROWS:
            flush(tested)
            flushed = tested
    if tested > flushed:
        flush(tested)
    stats["deep_candidates"] = {
        f"{s}/{mode}": c for (s, mode), c in zip(store, candidates.ravel().tolist())
    }
    stats["deep_verdicts"] = deep.evaluated
    stats["deep_kernel_calls"] = deep.calls
    return orbit_total, dict(zip(store, counts.ravel().tolist())), store, stats


def _canonicalize(lattice: PicardLattice, rows, elements: tuple[weyl.WeylElement, ...]):
    """Group counterexamples, the systems rows [N, n, rank], into
    stabilizer orbits; return canonical reps.

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
    stack = np.asarray(rows, dtype=np.int64)
    index = {row.tobytes(): i for i, row in enumerate(stack)}
    if len(index) != len(stack):
        raise InternalError(
            "two counterexamples are the same system (invariant violated)"
        )
    group = np.array([el.images for el in elements], dtype=np.int64)  # v -> v @ g
    seen = np.zeros(len(stack), dtype=bool)
    keys = []
    for i in range(len(stack)):
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
) -> int:
    """Re-verify canonical representatives independently of the sweep.

    Each representative must pass the reference exceptionality checker,
    have I(X,A) inside I^red, and exhibit the hole property: at least one
    of the windows -A_n, -A_{n-1,n} is a hole in the effective cone.  The
    deciders decide each class once per surface type (`effectivity`'s
    memo), so a class that recurs across the representatives is a lookup.
    Returns the number of windows read: per representative its non-cyclic
    windows (all of them, as it passes the checker), its I(X,A) windows
    and one or two hole windows.
    """
    red = s.red_lines_set()
    checker = is_strong_exceptional if mode == "strong" else is_exceptional
    windows = 0
    for A in reps:
        result = checker(s, A)
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
        windows += n * (n - 1) // 2 + len(compute_IXA_windows(A.squares())) + 1
        if not is_hole(s, vneg(A.window(n, n))):
            windows += 1
            if not is_hole(s, vneg(A.window(n - 1, n))):
                raise InternalError(
                    f"census counterexample lacks the hole property on {s.name}"
                )
    return windows


def census_for_preset(
    preset,
    surfaces=None,
    modes: tuple[str, ...] = MODES,
    *,
    finalize: bool = True,
    checkpoint_dir=None,
    resume: bool = False,
    max_layers: int | None = None,
) -> CensusRun:
    """Run the counterexample census over the orbit of A0: a preset name's
    system, a ToricSystem, or the system that `find_system_with_squares`
    realizes for a squares sequence (a list or tuple of integers).

    With finalize=True (the default, requires a complete orbit) the raw
    counts are reduced to essentially-different counts by the stabilizer
    of each surface's simple roots, and every representative re-verifies
    under the reference checker.

    The modes `strong` and `exceptional` (`MODES`) take a second-kind A0;
    `cyclic-strong`, which counts the cyclic strong exceptional systems of
    W.A0 per surface, takes a first-kind A0, finalize=False and no
    checkpoint.  A sequence is refused before the search, in this order:
    an entry that is not an integer; not admissible or no kind
    (`toric.classify_sequence`); an entry below -2 that is not last (the
    message names the rotation); a mode its kind does not take.  The search
    refuses another entry outside -2..1, then a sequence it cannot realize.
    Other mode combinations, an empty `modes` or `surfaces`, a surface on
    another lattice than A0's and `max_layers` with finalize are refused
    before the walk.

    With `checkpoint_dir`, progress is saved whenever test (4) has run on
    the held live rows and after the last layer, and `resume=True`
    continues from it to the raw counts and records of an uninterrupted
    run (see `_census_sweep`).
    """
    if isinstance(preset, str):
        if preset not in SEQUENCE_PRESETS:
            raise InputError(
                f"unknown sequence preset {preset!r}; known: "
                f"{', '.join(sorted(SEQUENCE_PRESETS))}"
            )
        preset = SEQUENCE_PRESETS[preset].initial_system()
    if isinstance(preset, ToricSystem):
        squares = preset.squares()
    elif isinstance(preset, (list, tuple)) and is_int_list(list(preset)):
        squares = tuple(preset)
        classify_sequence(squares)
        _window_plan(squares)
    else:
        raise InputError(
            f"a census starts from a preset name, a ToricSystem or an integer "
            f"list of squares, not {preset!r}"
        )
    _check_modes(squares, modes)
    A0 = preset
    if not isinstance(A0, ToricSystem):
        lattice = PicardLattice.standard(12 - len(squares))
        A0 = find_system_with_squares(lattice, squares)
        if A0 is None:
            raise InputError(f"no toric system realizes the squares {squares}")
    degree = A0.lattice.degree
    if surfaces is None:
        surfaces = catalog_load(degree).entries
    surfaces = tuple(surfaces)
    for s in surfaces:
        if s.lattice != A0.lattice:
            raise InputError(
                f"surface {s.name} is not on the lattice of the degree-{degree} "
                f"initial system"
            )
    names = [s.name for s in surfaces]
    for what, given in (("surface name", names), ("mode", list(modes))):
        if not given or len(set(given)) != len(given):
            raise InputError(
                f"a census needs one or more {what}s and no repeated {what}: {given}"
            )
    complete = max_layers is None
    if finalize and not complete:
        raise InputError("cannot finalize a truncated census run")
    if "cyclic-strong" in modes and (finalize or checkpoint_dir is not None):
        raise InputError("the cyclic-strong mode has nothing to finalize or checkpoint")
    orbit_total, raw_counts, store, stats = _census_sweep(
        A0, surfaces, tuple(modes), max_layers, checkpoint_dir, resume
    )
    if complete and orbit_total != EXPECTED_WEYL_ORDERS[degree]:
        raise InternalError(
            f"orbit size {orbit_total} != |W| = {EXPECTED_WEYL_ORDERS[degree]}"
        )
    records: dict[tuple[str, str], CensusRecord] = {}
    stats.update(
        canonicalize_s=0.0,
        reverify_s=0.0,
        representatives_verified=0,
        reverify_windows=0,
        reverify_decisions=0,
    )
    if finalize:
        by_name = {s.name: s for s in surfaces}
        for (sname, mode), blocks in sorted(store.items()):
            count = raw_counts[(sname, mode)]
            reps = ()
            if count:
                elements = stabilizer_elements(degree, by_name[sname].simple_roots)
                if elements is None:
                    raise InternalError(
                        "counterexamples on a surface without (-2)-curves"
                    )
                start = time.perf_counter()
                reps = _canonicalize(A0.lattice, np.concatenate(blocks), elements)
                verify, decisions = time.perf_counter(), decided()
                stats["reverify_windows"] += _verify_representatives(
                    by_name[sname], mode, reps
                )
                stats["reverify_decisions"] += decided() - decisions
                stats["canonicalize_s"] += verify - start
                stats["reverify_s"] += time.perf_counter() - verify
                stats["representatives_verified"] += len(reps)
            if mode == "strong" and count >= 0.003 * orbit_total:
                raise InternalError(
                    f"{sname}: counterexample fraction exceeds 0.3%"
                )
            records[(sname, mode)] = CensusRecord(
                sname, squares, mode, count, _stabilizer_order(by_name[sname]),
                len(reps), reps,
            )
    return CensusRun(
        squares=squares,
        orbit_total=orbit_total,
        complete=complete,
        records=records,
        raw_counts=raw_counts,
        stats=stats,
    )
