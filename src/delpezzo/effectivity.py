"""Effectiveness tests for divisor classes on weak del Pezzo surfaces.

Three deciders plus a search oracle:

* `is_effective` -- the general loop: positivity against the canonical
  class, an exact integer solve over the simple roots when D.K = 0, and
  repeated subtraction of negative curves met negatively until the
  divisor becomes nef (nef implies effective here).
* `anticlass_effective` -- the short loop for anti-classes, batched over
  rows and surfaces for the counterexample census; it only looks at
  products with the irreducible (-2)-curves of each surface, read from
  zero-padded root stacks (`root_stacks`).  `is_effective_anticlass_fast`
  is its one-row form.
* `is_absolutely_effective` -- exact rational membership in the cone
  spanned by the (-1)-classes.
* `brute_force_effective` -- direct search for a decomposition in the
  effective monoid; used as a test oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError, InternalError
from .picard import Divisor, PicardLattice, integer_adjugate, vneg, vscale, vsub, vsum
from .surface import SurfaceModel


@dataclass
class EffectivityTrace:
    """Auditable record of one is_effective run."""

    start: Divisor
    steps: list[tuple[Divisor, tuple[tuple[Divisor, int], ...], str]] = field(
        default_factory=list
    )
    verdict: bool | None = None
    certificate: tuple | None = None
    iterations: int = 0

    def replay(self, lattice: PicardLattice) -> Divisor:
        """Re-apply the recorded subtractions; returns the terminal divisor."""
        d = self.start
        for before, subtracted, _rule in self.steps:
            if before != d:
                raise InternalError("trace does not replay")
            for curve, mult in subtracted:
                d = vsub(d, vscale(mult, curve))
        return d


def _negative_curves(s: SurfaceModel) -> tuple[Divisor, ...]:
    return tuple(sorted(s.irr_lines_set())) + s.simple_roots


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


def is_effective(s: SurfaceModel, d: Divisor) -> tuple[bool, EffectivityTrace]:
    """Decide effectiveness of d on s; returns (verdict, trace)."""
    lat = s.lattice
    lat.check_divisor(d)
    trace = EffectivityTrace(start=d)
    curves = _negative_curves(s)
    cap = max(1, 10 * (lat.rank + abs(lat.k_product(d))))
    current = d
    while True:
        trace.iterations += 1
        if trace.iterations > cap:
            raise InternalError(f"effectiveness loop exceeded {cap} iterations")
        dk = lat.k_product(current)
        if dk > 0:
            trace.verdict = False
            trace.certificate = ("K-positive", current)
            return False, trace
        if dk == 0:
            combo = solve_root_combination(s, current)
            if combo is None:
                trace.verdict = False
                trace.certificate = ("not-root-combination", current)
                return False, trace
            trace.verdict = True
            trace.certificate = (
                "roots",
                tuple((r, m) for r, m in zip(s.simple_roots, combo) if m),
            )
            return True, trace
        violating = []
        for c in curves:
            p = lat.intersect(current, c)
            if p < 0:
                csq = -lat.square(c)
                mult = (-p + csq - 1) // csq  # ceil(-p / -c^2)
                violating.append((c, mult))
        if not violating:
            trace.verdict = True
            trace.certificate = ("nef", current)
            return True, trace
        before = current
        for c, m in violating:
            current = vsub(current, vscale(m, c))
        trace.steps.append((before, tuple(violating), "subtract-negative-curves"))


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


def is_effective_anticlass_fast(s: SurfaceModel, d: Divisor) -> bool:
    """Effectiveness of one conditionally effective anti-class (see
    `anticlass_effective`)."""
    s.lattice.check_divisor(d)
    return bool(anticlass_effective(root_stacks((s,)), [d], [0])[0])


# -- absolute effectiveness (rational cone membership) ------------------


def is_absolutely_effective(s_or_degree, d: Divisor) -> bool:
    """Is d a nonnegative rational combination of the (-1)-classes?"""
    degree = s_or_degree if isinstance(s_or_degree, int) else s_or_degree.degree
    lat = PicardLattice.standard(degree)
    lat.check_divisor(d)
    generators = lat.enumerate_classes(-1)
    return _cone_member(generators, d)


def _cone_member(generators, d) -> bool:
    """Exact LP feasibility of {x >= 0 : sum x_i g_i = d} (phase-1 simplex)."""
    m = len(d)
    n = len(generators)
    # Rows: equations; make right-hand sides nonnegative.
    rows = []
    b = []
    for i in range(m):
        coeffs = [Fraction(g[i]) for g in generators]
        rhs = Fraction(d[i])
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        rows.append(coeffs)
        b.append(rhs)
    # Tableau with artificial variables n..n+m-1 in the basis.
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    total = n + m
    # Objective: minimize sum of artificials; reduced cost row.
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] -= tab[i][j]
    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][total] / tab[i][enter], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            raise InternalError("unbounded phase-1 LP")
        _, leave = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        pv = tab[leave][enter]
        tab[leave] = [v / pv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[total] == 0


# -- brute-force oracle -------------------------------------------------


def brute_force_effective(s: SurfaceModel, d: Divisor, bound: int) -> bool:
    """Search for d = (nonneg combo of irreducible (-1)-curves and -K)
    plus (nonneg integer combo of simple roots).

    Test oracle: direct monoid membership, independent of the subtraction
    loop in is_effective.  `bound` caps every multiplicity.
    """
    lat = s.lattice
    lat.check_divisor(d)
    lines = tuple(sorted(s.irr_lines_set()))
    minus_k = vneg(lat.canonical)
    gens = (minus_k,) + lines
    weights = tuple(lat.intersect(g, vneg(lat.canonical)) for g in gens)
    failures: set[tuple[int, Divisor]] = set()

    def residual_ok(current: Divisor) -> bool:
        if lat.k_product(current) != 0:
            return False
        return solve_root_combination(s, current) is not None

    def search(idx: int, current: Divisor) -> bool:
        budget = lat.intersect(current, vneg(lat.canonical))
        if budget < 0 or current[0] < 0:
            return False
        # Generators already passed pair >= 0 with everything still
        # available, so a negative product with one of them is fatal.
        for j in range(1, idx):
            if lat.intersect(current, gens[j]) < 0:
                return False
        if idx == len(gens):
            return residual_ok(current)
        key = (idx, current)
        if key in failures:
            return False
        w = weights[idx]
        max_mult = min(bound, budget // w) if w > 0 else bound
        step = gens[idx]
        sub = current
        for mult in range(max_mult + 1):
            if search(idx + 1, sub):
                return True
            sub = vsub(sub, step)
        failures.add(key)
        return False

    return search(0, d)


def is_hole(s: SurfaceModel, d: Divisor, max_multiple: int = 6) -> bool:
    """Not effective, but some multiple k*d with 2 <= k <= max_multiple is."""
    if is_effective(s, d)[0]:
        return False
    return any(
        is_effective(s, vscale(k, d))[0] for k in range(2, max_multiple + 1)
    )
