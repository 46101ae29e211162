"""Effectiveness tests for divisor classes on weak del Pezzo surfaces.

Two deciders plus a search oracle:

* `is_effective` -- the general loop: positivity against the canonical
  class, an exact integer solve over the simple roots when D.K = 0, and
  repeated subtraction of negative curves met negatively until the
  divisor becomes nef (nef implies effective here); the
  left-orthogonality criteria `is_lo` and `is_slo` rest on it.
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
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _negative_curves(
    lattice: PicardLattice, simple_roots: tuple[Divisor, ...]
) -> tuple[tuple[Divisor, int], ...]:
    """(c, -c^2) for the irreducible (-1)-curves, sorted, then the simple roots."""
    lines = sorted(SurfaceModel(lattice, simple_roots).irr_lines_set())
    return tuple((c, -lattice.square(c)) for c in (*lines, *simple_roots))


@lru_cache(maxsize=None)
def _root_gram_adjugate(lattice: PicardLattice, roots: tuple[Divisor, ...]):
    """(adj, det) of the Gram matrix (r_i . r_j) of linearly independent roots."""
    return integer_adjugate(
        [[lattice.intersect(a, b) for b in roots] for a in roots]
    )


def solve_root_combination(s: SurfaceModel, d: Divisor):
    """Express d as sum(x_i * simple_root_i) exactly, or return None.

    The simple roots are linearly independent, so the solution (over the
    rationals) is unique; it is found from the pairing system
    d . r_i = sum_j x_j (r_j . r_i), whose matrix G is negative definite:
    x = adj(G) (d . r_i) / det(G), with (adj, det) cached per root set.
    """
    roots = s.simple_roots
    if not roots:
        return () if all(c == 0 for c in d) else None
    lat = s.lattice
    adj, det = _root_gram_adjugate(lat, roots)
    pairings = [lat.intersect(d, r) for r in roots]
    xs = []
    for row in adj:
        q, rem = divmod(sum(a * p for a, p in zip(row, pairings)), det)
        if rem or q < 0:
            return None
        xs.append(q)
    # The pairing system alone does not put d in the span of the roots.
    if vsum((vscale(x, r) for x, r in zip(xs, roots) if x), lat.rank) != d:
        return None
    return tuple(xs)


def is_effective(s: SurfaceModel, d: Divisor) -> bool:
    """Decide effectiveness of d on s."""
    lat = s.lattice
    curves = _negative_curves(lat, s.simple_roots)
    cap = max(1, 10 * (lat.rank + abs(lat.k_product(d))))
    current = d
    for _ in range(cap):
        dk = lat.k_product(current)
        if dk > 0:
            return False
        if dk == 0:
            return solve_root_combination(s, current) is not None
        violating = []
        for c, csq in curves:
            p = lat.intersect(current, c)
            if p < 0:
                violating.append((c, (-p + csq - 1) // csq))  # ceil(-p / -c^2)
        if not violating:
            return True  # nef
        for c, m in violating:
            current = vsub(current, vscale(m, c))
    raise InternalError(f"effectiveness loop exceeded {cap} iterations")


# -- left-orthogonality criteria --------------------------------------


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


def is_hole(s: SurfaceModel, d: Divisor) -> bool:
    """Not effective, but some multiple k*d with k in HOLE_MULTIPLES is."""
    if is_effective(s, d):
        return False
    return any(is_effective(s, vscale(k, d)) for k in HOLE_MULTIPLES)
