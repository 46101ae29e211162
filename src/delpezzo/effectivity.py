"""Effectiveness tests for divisor classes on weak del Pezzo surfaces.

Two deciders plus a search oracle:

* `is_effective` -- the general loop: positivity against the canonical
  class, an exact integer solve over the simple roots when D.K = 0, and
  repeated subtraction of negative curves met negatively until the
  divisor becomes nef (nef implies effective here); the
  left-orthogonality criteria `is_lo` and `is_slo` and the hole test
  `is_hole` rest on it.  These four decide each class once per surface
  type: their verdicts are memoized per (lattice, simple roots).
* `anticlass_effective` -- the short loop for anti-classes, batched over
  rows and surfaces for the counterexample census; it only looks at
  products with the irreducible (-2)-curves of each surface, read from
  zero-padded root stacks (`root_stacks`); one row on one surface is
  `anticlass_effective(root_stacks((s,)), [d], [0])`.
* `brute_force_effective` -- direct search for a decomposition in the
  effective monoid; used as a test oracle only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import InputError, InternalError
from .picard import (
    Divisor,
    PicardLattice,
    integer_adjugate,
    vadd,
    vneg,
    vscale,
    vsub,
    vsum,
)
from .surface import SurfaceModel


#: The memo: (lattice, simple roots, decider name) -> class -> verdict.
_MEMO: dict[tuple[PicardLattice, tuple[Divisor, ...], str], dict[Divisor, bool]] = {}


def _memoized(decide):
    """`decide(s, d)` evaluated once per class on each surface type.

    The verdicts live in `_MEMO`, keyed by the lattice and the simple
    roots, never by a surface's name: surfaces with the same roots share
    them, and no verdict crosses to a surface with other roots.  A
    repeated class costs one lookup.
    """
    name = decide.__name__

    @wraps(decide)
    def memoized(s: SurfaceModel, d: Divisor) -> bool:
        key = (s.lattice, s.simple_roots, name)
        memo = _MEMO.get(key)
        if memo is None:
            memo = _MEMO[key] = {}
        d = tuple(d)
        verdict = memo.get(d)
        if verdict is None:
            verdict = memo[d] = decide(s, d)
        return verdict

    return memoized


def decided() -> int:
    """How many verdicts the memo holds over every surface type: each one
    is an evaluation of a decider."""
    return sum(map(len, _MEMO.values()))


@dataclass(frozen=True)
class _CurveTable:
    """The negative curves of one surface type as `is_effective` pairs with
    them: the irreducible (-1)-curves sorted, then the simple roots.

    d @ pairing = (d.K, d.c_1, d.c_2, ...); subtracting m c_j from d
    subtracts m rows[j] = (c_j.K, c_j.c_1, ...) from those pairings.
    """

    curves: tuple[Divisor, ...]
    minus_squares: tuple[int, ...]  # -c_j^2: 1 for a line, 2 for a root
    pairing: np.ndarray  # [rank, 1 + curves], Python ints (dtype object)
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _curve_table(
    lattice: PicardLattice, simple_roots: tuple[Divisor, ...]
) -> _CurveTable:
    lines = sorted(SurfaceModel(lattice, simple_roots).irr_lines_set())
    curves = (*lines, *simple_roots)
    gram = np.array(lattice.gram, dtype=object)
    pairing = gram @ np.array((lattice.canonical, *curves), dtype=object).T
    pairing.flags.writeable = False  # cached and shared by every caller
    rows = np.array(curves, dtype=object).reshape(-1, lattice.rank) @ pairing
    minus_squares = tuple((-rows[:, 1:].diagonal()).tolist())
    return _CurveTable(curves, minus_squares, pairing, tuple(map(tuple, rows.tolist())))


@lru_cache(maxsize=None)
def _root_solver(lattice: PicardLattice, roots: tuple[Divisor, ...]):
    """(F, det) with F = adj(G_R) (r_i . -)_i for the Gram matrix G_R of
    linearly independent roots: row i of F dotted with d is det times the
    coefficient of r_i in the solution of d . r_i = sum_j x_j (r_j . r_i)."""
    pairing = np.array(roots) @ np.array(lattice.gram)  # row i: r_i . -
    adj, det = _adjugate(tuple(map(tuple, (pairing @ np.array(roots).T).tolist())))
    return tuple(map(tuple, (np.array(adj) @ pairing).tolist())), det


#: `integer_adjugate` by Gram matrix: W-conjugate root sets share theirs.
_adjugate = lru_cache(maxsize=None)(integer_adjugate)


def _check_length(lattice: PicardLattice, d: Divisor) -> None:
    """The length check of `PicardLattice.intersect`, for the deciders that
    pair through cached tables instead."""
    if len(d) != lattice.rank:
        raise InputError(
            f"divisor length {len(d)} does not match lattice rank {lattice.rank}"
        )


def solve_root_combination(s: SurfaceModel, d: Divisor):
    """Express d as sum(x_i * simple_root_i) exactly, or return None.

    The simple roots are linearly independent, so the solution (over the
    rationals) is unique; it is found from the pairing system
    d . r_i = sum_j x_j (r_j . r_i), whose matrix G is negative definite:
    x = adj(G) (d . r_i) / det(G), the adjugate and the pairings folded
    into one matrix cached per root set (`_root_solver`).
    """
    _check_length(s.lattice, d)
    roots = s.simple_roots
    if not roots:
        return () if all(c == 0 for c in d) else None
    folded, det = _root_solver(s.lattice, roots)
    xs = []
    for row in folded:
        q, rem = divmod(sum(map(operator.mul, row, d)), det)
        if rem or q < 0:
            return None
        xs.append(q)
    # The pairing system alone does not put d in the span of the roots.
    if vsum((vscale(x, r) for x, r in zip(xs, roots) if x), s.lattice.rank) != d:
        return None
    return tuple(xs)


@_memoized
def is_effective(s: SurfaceModel, d: Divisor) -> bool:
    """Decide effectiveness of d on s.

    While d.K < 0, subtract every negative curve that d meets negatively,
    each as often as it takes to meet it non-negatively; a class meeting
    none is nef, hence effective.  d.K > 0 is not effective; d.K = 0 is
    effective iff it is a non-negative combination of the simple roots.
    The loop carries the pairings of the rest with K and every curve
    (`_CurveTable`), and forms the rest itself only for that solve.
    """
    lat = s.lattice
    _check_length(lat, d)
    table = _curve_table(lat, s.simple_roots)
    # Python ints throughout (dtype object): the pairings are exact however
    # large d is.
    pairings = (np.array(d, dtype=object) @ table.pairing).tolist()
    taken = [0] * len(table.curves)
    cap = max(1, 10 * (lat.rank + abs(pairings[0])))
    for _ in range(cap):
        dk = pairings[0]
        if dk > 0:
            return False
        if dk == 0:
            taken_sum = vsum(
                (vscale(m, c) for m, c in zip(taken, table.curves) if m), lat.rank
            )
            return solve_root_combination(s, vsub(d, taken_sum)) is not None
        violating = [
            (j, (-p + csq - 1) // csq)  # ceil(-p / -c^2)
            for j, (p, csq) in enumerate(zip(pairings[1:], table.minus_squares))
            if p < 0
        ]
        if not violating:
            return True  # nef
        for j, m in violating:
            taken[j] += m
            pairings = [p - m * q for p, q in zip(pairings, table.rows[j])]
    raise InternalError(f"effectiveness loop exceeded {cap} iterations")


# -- left-orthogonality criteria --------------------------------------


@_memoized
def is_lo(s: SurfaceModel, d: Divisor) -> bool:
    """Left-orthogonality criterion for an r-class, by effectiveness tests."""
    lat = s.lattice
    r = lat.classify_r(d)
    if r is None:
        raise InputError(f"{d} is not an r-class")
    dd = lat.degree
    if -1 <= r <= dd - 3:
        return True
    if r <= -2:
        return not is_effective(s, vneg(d))
    # r >= d - 2
    return not is_effective(s, vadd(lat.canonical, d))


@_memoized
def is_slo(s: SurfaceModel, d: Divisor) -> bool:
    """Strong left-orthogonality criterion for an r-class."""
    lat = s.lattice
    r = lat.classify_r(d)
    if r is None:
        raise InputError(f"{d} is not an r-class")
    dd = lat.degree
    if r <= -3:
        return False
    if -1 <= r <= dd - 3:
        return True
    if r == -2:
        return not is_effective(s, d) and not is_effective(s, vneg(d))
    # r >= d - 2
    return not is_effective(s, vadd(lat.canonical, d))


@dataclass(frozen=True)
class RootStacks:
    """The simple roots of several surfaces on one lattice, zero-padded to
    a common count, as the arrays the batched anti-class kernel reads.

    A padding root pairs to zero with everything, so it never counts as
    met negatively and never enters a subtraction.
    """

    lattice: PicardLattice
    roots: np.ndarray  # [S, R, rank] int64
    pairing: np.ndarray  # [S, rank, R]: d @ pairing[t] = (d . r_j)_j
    meets: np.ndarray  # [S, R, R] root products, zero on the diagonal
    gram: np.ndarray  # [rank, rank]
    k_pairing: np.ndarray  # [rank]: d @ k_pairing = d . K


@lru_cache(maxsize=None)
def root_stacks(surfaces: tuple[SurfaceModel, ...]) -> RootStacks:
    """The kernel's arrays for `surfaces`, which must share one lattice."""
    if not surfaces:
        raise InputError("root stacks need at least one surface")
    lat = surfaces[0].lattice
    if any(s.lattice != lat for s in surfaces):
        raise InputError("root stacks need surfaces on one lattice")
    width = max(len(s.simple_roots) for s in surfaces)
    roots = np.zeros((len(surfaces), width, lat.rank), dtype=np.int64)
    for t, s in enumerate(surfaces):
        if s.simple_roots:
            roots[t, : len(s.simple_roots)] = s.simple_roots
    gram = np.array(lat.gram, dtype=np.int64)
    pairing = roots @ gram
    meets = pairing @ roots.transpose(0, 2, 1)
    meets[:, np.arange(width), np.arange(width)] = 0
    stacks = RootStacks(
        lat,
        roots,
        np.ascontiguousarray(pairing.transpose(0, 2, 1)),
        meets,
        gram,
        gram @ np.array(lat.canonical, dtype=np.int64),
    )
    for arr in (roots, stacks.pairing, meets, gram, stacks.k_pairing):
        arr.flags.writeable = False  # cached and shared by every caller
    return stacks


def anticlass_effective(
    stacks: RootStacks, d: np.ndarray, which: np.ndarray
) -> np.ndarray:
    """Effectiveness of conditionally effective anti-classes, batched.

    Row b of d [B, rank] is tested on surface which[b] of the stacks.  Only
    products with the irreducible (-2)-curves are used: if some product is
    <= -2 the class is effective; if none is -1 it is not; two curves met
    with product -1 that meet each other positively force effectiveness;
    otherwise subtracting a curve met with product -1 preserves the answer,
    all of them at once when they are pairwise disjoint, else the first.
    Returns the verdicts [B] bool.
    """
    d = np.array(d, dtype=np.int64)  # a copy: the loop subtracts in place
    which = np.asarray(which, dtype=np.intp)
    if d.ndim != 2 or d.shape[1] != stacks.lattice.rank or which.shape != d.shape[:1]:
        raise InputError(f"expected [B, {stacks.lattice.rank}] classes and [B] surfaces")
    dk = d @ stacks.k_pairing
    not_anti = (d @ stacks.gram * d).sum(axis=1) - dk != -2
    if not_anti.any():
        raise InputError(f"{tuple(d[not_anti][0].tolist())} is not an anti-class")
    if (dk > 0).any():
        raise InputError("anti-class test requires D.K <= 0")
    cap = np.maximum(1, 10 * (stacks.lattice.rank + np.abs(dk)))
    verdict = np.zeros(d.shape[0], dtype=bool)
    active = np.arange(d.shape[0])
    steps = 0
    while active.size:
        steps += 1
        t = which[active]
        products = (d[active, None, :] @ stacks.pairing[t])[:, 0, :]
        ones = products == -1
        both = ones[:, :, None] & ones[:, None, :]
        meets = stacks.meets[t]
        effective = (products <= -2).any(axis=1) | (both & (meets > 0)).any(
            axis=(1, 2)
        )
        verdict[active[effective]] = True
        go = ~effective & ones.any(axis=1)
        ones, both = ones[go], both[go]
        disjoint = ~(both & (meets[go] < 0)).any(axis=(1, 2))
        first = ones & (np.cumsum(ones, axis=1) == 1)
        subtract = np.where(disjoint[:, None], ones, first).astype(np.int64)
        active = active[go]
        d[active] -= (subtract[:, None, :] @ stacks.roots[t[go]])[:, 0, :]
        if (cap[active] <= steps).any():
            raise InternalError("anti-class loop did not terminate")
    return verdict


# -- brute-force oracle -------------------------------------------------


@lru_cache(maxsize=None)
def _oracle_generators(lattice: PicardLattice, simple_roots: tuple[Divisor, ...]):
    """(gens, products): -K, then the irreducible (-1)-curves sorted, and
    their product matrix.  The search carries a class's pairings with every
    generator: subtracting generator i subtracts row i of the products."""
    lines = sorted(SurfaceModel(lattice, simple_roots).irr_lines_set())
    gens = (vneg(lattice.canonical), *lines)
    return gens, tuple(tuple(lattice.intersect(g, h) for h in gens) for g in gens)


def brute_force_effective(s: SurfaceModel, d: Divisor, bound: int) -> bool:
    """Search for d = (nonneg combo of irreducible (-1)-curves and -K)
    plus (nonneg integer combo of simple roots).

    Test oracle: direct monoid membership, independent of the subtraction
    loop in is_effective.  `bound` caps every multiplicity.
    """
    lat = s.lattice
    gens, products = _oracle_generators(lat, s.simple_roots)
    failures: set[tuple[int, Divisor]] = set()

    def search(idx: int, current: Divisor, pairings: tuple[int, ...]) -> bool:
        budget = pairings[0]
        if budget < 0 or current[0] < 0:
            return False
        # Generators already passed pair >= 0 with everything still
        # available, so a negative product with one of them is fatal.
        for j in range(1, idx):
            if pairings[j] < 0:
                return False
        if idx == len(gens):  # the rest must be a root combination: K.rest = 0
            return budget == 0 and solve_root_combination(s, current) is not None
        key = (idx, current)
        if key in failures:
            return False
        w = products[idx][0]
        max_mult = min(bound, budget // w) if w > 0 else bound
        step, row = gens[idx], products[idx]
        for _ in range(max_mult + 1):
            if search(idx + 1, current, pairings):
                return True
            current = tuple(map(operator.sub, current, step))
            pairings = tuple(map(operator.sub, pairings, row))
        failures.add(key)
        return False

    return search(0, d, tuple(lat.intersect(d, g) for g in gens))


#: Multiples k*d that `is_hole` tests.
HOLE_MULTIPLES = range(2, 7)


@_memoized
def is_hole(s: SurfaceModel, d: Divisor) -> bool:
    """Not effective, but some multiple k*d with k in HOLE_MULTIPLES is."""
    if is_effective(s, d):
        return False
    return any(is_effective(s, vscale(k, d)) for k in HOLE_MULTIPLES)
