"""Weak del Pezzo surface types: lattice plus irreducible (-2)-curves.

A surface type is modeled by its Picard lattice together with the set of
simple roots (classes of irreducible (-2)-curves); its effective roots and
irreducible (-1)-curves are derived from that data.  Degrees 7-3 come from
the embedded tables; degrees 2 and 1 hold the census's root subsystems,
each the first configuration `picard.class_tuples` finds with its Dynkin
diagram's products.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .picard import Divisor, PicardLattice, class_tuples, parse_divisor_list, vadd


@dataclass(frozen=True)
class SurfaceModel:
    """A weak del Pezzo surface type (lattice-level data only)."""

    lattice: PicardLattice
    simple_roots: tuple[Divisor, ...]
    name: str = ""

    def __post_init__(self):
        lat = self.lattice
        for r in self.simple_roots:
            if lat.classify_r(r) != -2:
                raise InputError(f"simple root {r} is not a (-2)-class")
        for r1, r2 in itertools.combinations(self.simple_roots, 2):
            if lat.intersect(r1, r2) not in (0, 1):
                raise InputError(
                    f"simple roots {r1}, {r2} have product outside {{0,1}}"
                )

    @property
    def degree(self) -> int:
        return self.lattice.degree

    @property
    def is_del_pezzo(self) -> bool:
        return not self.simple_roots

    # Derived caches ---------------------------------------------------

    def effective_roots_set(self) -> frozenset[Divisor]:
        return _effective_roots(self.lattice, self.simple_roots)

    def irr_lines_set(self) -> frozenset[Divisor]:
        return _irr_lines(self.lattice, self.simple_roots)

    def red_lines_set(self) -> frozenset[Divisor]:
        """Reducible (-1)-classes: I(X) minus the irreducible ones."""
        return _red_lines(self.lattice, self.simple_roots)


@lru_cache(maxsize=None)
def _effective_roots(
    lattice: PicardLattice, simple_roots: tuple[Divisor, ...]
) -> frozenset[Divisor]:
    # Saturation: a positive root of a root subsystem is reachable from a
    # simple root by repeatedly adding single simple roots.
    all_roots = set(lattice.enumerate_classes(-2))
    current = set(simple_roots)
    frontier = set(simple_roots)
    while frontier:
        new = set()
        for p in frontier:
            for s in simple_roots:
                q = vadd(p, s)
                if q in all_roots and q not in current:
                    new.add(q)
        current |= new
        frontier = new
    return frozenset(current)


@lru_cache(maxsize=None)
def _irr_lines(
    lattice: PicardLattice, simple_roots: tuple[Divisor, ...]
) -> frozenset[Divisor]:
    """The (-1)-classes meeting every simple root non-negatively."""
    lines = lattice.enumerate_classes(-1)
    if not simple_roots:
        return frozenset(lines)
    meets = np.array(lines) @ np.array(lattice.gram) @ np.array(simple_roots).T
    return frozenset(c for c, ok in zip(lines, (meets >= 0).all(axis=1)) if ok)


@lru_cache(maxsize=None)
def _red_lines(
    lattice: PicardLattice, simple_roots: tuple[Divisor, ...]
) -> frozenset[Divisor]:
    return frozenset(lattice.enumerate_classes(-1)) - _irr_lines(lattice, simple_roots)


# -- embedded catalog --------------------------------------------------
#
# Rows: (type label, simple roots, |I^irr|, good 0-classes).
# A good-S entry of None means the source table does not list the good
# classes for that degree (they are derived instead); "" means none.

_D7 = [
    ("dP", "", 3, ""),
    ("A1", "E1-E2", 2, ""),
]

_D6 = [
    ("dP", "", 6, ""),
    ("A1,4", "E1-E2", 4, ""),
    ("A1,3", "L123", 3, ""),
    ("2A1", "E1-E2,L123", 2, ""),
    ("A2", "E1-E2,E2-E3", 2, "L3"),
    ("A1+A2", "E1-E2,E2-E3,L123", 1, "L3"),
]

_D5 = [
    ("dP", "", 10, ""),
    ("A1", "E1-E2", 7, ""),
    ("2A1", "E1-E2,E3-E4", 5, ""),
    ("A2", "E1-E2,E2-E3", 4, ""),
    ("A1+A2", "E1-E2,E2-E3,L123", 3, ""),
    ("A3", "E1-E2,E2-E3,E3-E4", 2, "L4"),
    ("A4", "E1-E2,E2-E3,E3-E4,L123", 1, "L4,2L-E1234"),
]

_D4 = [
    ("dP", "", 16, None),
    ("A1", "E4-E5", 12, None),
    ("2A1,9", "E2-E3,E4-E5", 9, None),
    ("2A1,8", "L123,E4-E5", 8, "2L-E1235"),
    ("A2", "E3-E4,E4-E5", 8, None),
    ("3A1", "L123,E2-E3,E4-E5", 6, "2L-E1235"),
    ("A1+A2", "E1-E2,E3-E4,E4-E5", 6, None),
    ("A3,5", "E2-E3,E3-E4,E4-E5", 5, None),
    ("A3,4", "L123,E3-E4,E4-E5", 4, "2L-E1235,2L-E1245"),
    ("4A1", "E1-E2,E4-E5,L123,L345", 4, "2L-E2345,2L-E1235"),
    ("2A1+A2", "E1-E2,E2-E3,E4-E5,L123", 4, "2L-E1235"),
    ("A1+A3", "E1-E2,E3-E4,E4-E5,L123", 3, "2L-E1245,2L-E1235"),
    ("A4", "E1-E2,E2-E3,E3-E4,E4-E5", 3, "L5"),
    ("2A1+A3", "E1-E2,L345,E3-E4,E4-E5,L123", 2, "2L-E1235,2L-E1245,2L-E2345"),
    ("D4", "E2-E3,E3-E4,E4-E5,L123", 2, "2L-E1235,2L-E1245,2L-E1345"),
    ("D5", "E1-E2,E2-E3,E3-E4,E4-E5,L123", 1, "L5,2L-E1235,2L-E1245,2L-E1345,2L-E2345"),
]

# Degree 3 rows carry the count of good 0-classes instead of the list.
_D3 = [
    ("dP", "", 27, 0),
    ("A1", "Z", 21, 0),
    ("2A1", "E1-E2,E3-E4", 16, 0),
    # The source table repeats "E1-E2,E3-E4" for A2, which contradicts the
    # 15 listed irreducible (-1)-classes of that row; the A2 chain below
    # reproduces them exactly.
    ("A2", "E1-E2,E2-E3", 15, 0),
    ("3A1", "E1-E2,E3-E4,E5-E6", 12, 0),
    ("A1+A2", "E4-E5,E1-E2,E2-E3", 11, 1),
    ("A3", "E1-E2,E2-E3,E3-E4", 10, 0),
    ("4A1", "E1-E2,E3-E4,E5-E6,Z", 9, 0),
    ("2A1+A2", "E4-E5,L123,E1-E2,E2-E3", 8, 2),
    ("A1+A3", "E5-E6,E1-E2,E2-E3,E3-E4", 7, 2),
    ("2A2", "E1-E2,E2-E3,E4-E5,E5-E6", 7, 3),
    ("A4", "E1-E2,E2-E3,E3-E4,E4-E5", 6, 3),
    ("D4", "E1-E2,E3-E4,E5-E6,L135", 6, 0),
    ("2A1+A3", "E5-E6,Z,E1-E2,E2-E3,E3-E4", 5, 4),
    ("A1+2A2", "L123,E1-E2,E2-E3,E4-E5,E5-E6", 5, 5),
    ("A1+A4", "Z,E1-E2,E2-E3,E3-E4,E4-E5", 4, 6),
    ("A5", "E1-E2,E2-E3,E3-E4,E4-E5,E5-E6", 3, 9),
    ("D5", "E1-E2,E2-E3,E3-E4,E4-E5,L126", 3, 7),
    ("3A2", "E1-E2,E2-E3,E4-E5,E5-E6,L123,L456", 3, 9),
    ("A1+A5", "Z,E1-E2,E2-E3,E3-E4,E4-E5,E5-E6", 2, 12),
    ("E6", "L123,E1-E2,E2-E3,E3-E4,E4-E5,E5-E6", 1, 17),
]

_TABLE_ROWS = {7: _D7, 6: _D6, 5: _D5, 4: _D4, 3: _D3}

#: Degree-2 root subsystem types covered by the counterexample census.
DEGREE2_TYPES = (
    "7A1",
    "6A1",
    "5A1",
    "A3+3A1",
    "A1+2A3",
    "D4+2A1",
    "D4+3A1",
    "D6+A1",
)

#: Explicit configuration realizing A1+2A3 in degree 2 (three chains:
#: L123 alone; E1-E2, E2-E3, 2L-E124567; E4-E5, E5-E6, E6-E7).
_A1_2A3_ROOTS = "L123,E1-E2,E2-E3,2L-E124567,E4-E5,E5-E6,E6-E7"


@dataclass(frozen=True)
class SurfaceCatalog:
    degree: int
    entries: tuple[SurfaceModel, ...]

    def get(self, label: str) -> SurfaceModel:
        for s in self.entries:
            if s.name == label or s.name == surface_name(self.degree, label):
                return s
        labels = [s.name for s in self.entries]
        near = min(labels, key=lambda x: _edit_distance(label, x))
        raise InputError(f"unknown surface {label!r}; closest match: {near!r}")


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def surface_name(degree: int, label: str) -> str:
    return f"X_{{{degree},{label}}}" if label != "dP" else f"X_{{{degree}}}"


@lru_cache(maxsize=None)
def catalog_load(degree: int) -> SurfaceCatalog:
    """Catalog of surface types for a given degree.

    Degrees 3-7 reproduce the embedded tables; degrees 1-2 contain the
    del Pezzo model plus the root-subsystem representatives needed for the
    counterexample census (explicit for A1+2A3 in degree 2, found by
    configuration search otherwise).
    """
    if not 1 <= degree <= 7:
        raise InputError(f"no catalog for degree {degree}")
    lat = PicardLattice.standard(degree)
    entries = []
    if degree >= 3:
        for label, roots_text, irr_count, _good in _TABLE_ROWS[degree]:
            roots = parse_divisor_list(lat, roots_text)
            model = SurfaceModel(lat, roots, surface_name(degree, label))
            derived = len(model.irr_lines_set())
            if derived != irr_count:
                raise InputError(
                    f"{model.name}: derived |I^irr| = {derived}, table says {irr_count}"
                )
            entries.append(model)
    else:
        entries.append(SurfaceModel(lat, (), surface_name(degree, "dP")))
        for label in DEGREE2_TYPES:
            if degree == 2 and label == "A1+2A3":
                roots = parse_divisor_list(lat, _A1_2A3_ROOTS)
            else:
                roots = find_configuration(degree, label)
            entries.append(SurfaceModel(lat, roots, surface_name(degree, label)))
    return SurfaceCatalog(degree, tuple(entries))


def expected_good_zero_classes(degree: int, label: str):
    """Good 0-classes (or their count, for degree 3) from the source table."""
    for row_label, _roots, _cnt, good in _TABLE_ROWS.get(degree, []):
        if row_label == label:
            if good is None or isinstance(good, int):
                return good
            lat = PicardLattice.standard(degree)
            return tuple(sorted(parse_divisor_list(lat, good)))
    return None


# -- Dynkin configuration search ---------------------------------------

_COMP_RE = re.compile(r"^(\d*)([ADE])(\d+)$")


def parse_dynkin_type(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a type string like 'A1+2A3' into a sorted component tuple."""
    comps: list[tuple[str, int]] = []
    for part in text.split("+"):
        m = _COMP_RE.match(part.strip())
        if not m:
            raise InputError(f"cannot parse Dynkin type {text!r}")
        mult = int(m.group(1) or "1")
        letter, rank = m.group(2), int(m.group(3))
        if letter == "D" and rank < 4 or letter == "E" and rank not in (6, 7, 8):
            raise InputError(f"invalid component {part!r} in {text!r}")
        comps.extend([(letter, rank)] * mult)
    return tuple(sorted(comps, key=lambda c: (-c[1], c[0])))


def _component_adjacency(letter: str, rank: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram on nodes 0..rank-1."""
    if letter == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    # E6/E7/E8: chain 0..rank-2 with node rank-1 attached to node 2.
    return [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]


def dynkin_adjacency(comps) -> list[list[int]]:
    """Block-diagonal adjacency matrix for a sum of components."""
    total = sum(rank for _letter, rank in comps)
    adj = [[0] * total for _ in range(total)]
    offset = 0
    for letter, rank in comps:
        for i, j in _component_adjacency(letter, rank):
            adj[offset + i][offset + j] = adj[offset + j][offset + i] = 1
        offset += rank
    return adj


def find_configuration(degree: int, type_text: str) -> tuple[Divisor, ...]:
    """Simple roots realizing a Dynkin type: the lexicographically least
    tuple of (-2)-classes whose products are the diagram's adjacency."""
    lat = PicardLattice.standard(degree)
    adj = dynkin_adjacency(parse_dynkin_type(type_text))
    roots = lat.enumerate_classes(-2)
    found = next(class_tuples(lat, [roots] * len(adj), adj), None)
    if found is None:
        raise InputError(f"no configuration of type {type_text!r} in degree {degree}")
    return found


def catalog_export(catalog: SurfaceCatalog) -> list[dict]:
    """JSON-ready dump of a catalog."""
    out = []
    for s in catalog.entries:
        out.append(
            {
                "degree": catalog.degree,
                "name": s.name,
                "simple_roots": [list(r) for r in s.simple_roots],
                "irr_minus_one": [list(c) for c in sorted(s.irr_lines_set())],
                "eff_roots": [list(r) for r in sorted(s.effective_roots_set())],
            }
        )
    return out
