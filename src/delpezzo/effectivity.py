"""Effectiveness tests for divisor classes on weak del Pezzo surfaces.

Three deciders plus a search oracle:

* `is_effective` -- the general loop: positivity against the canonical
  class, an exact integer solve over the simple roots when D.K = 0, and
  repeated subtraction of negative curves met negatively until the
  divisor becomes nef (nef implies effective here).
* `is_effective_anticlass_fast` -- the short loop for anti-classes used
  by the counterexample census; it only looks at products with the
  irreducible (-2)-curves of the surface.
* `is_absolutely_effective` -- exact rational membership in the cone
  spanned by the (-1)-classes.
* `brute_force_effective` -- direct search for a decomposition in the
  effective monoid; used as a test oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InternalError
from .picard import Divisor, PicardLattice, vneg, vscale, vsub, vsum
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


def solve_root_combination(s: SurfaceModel, d: Divisor):
    """Express d as sum(x_i * simple_root_i) exactly, or return None.

    The simple roots are linearly independent, so the solution (over the
    rationals) is unique; it is found from the pairing system
    d . r_i = sum_j x_j (r_j . r_i), whose matrix is negative definite.
    """
    roots = s.simple_roots
    if not roots:
        return () if all(c == 0 for c in d) else None
    lat = s.lattice
    k = len(roots)
    mat = [
        [Fraction(lat.intersect(roots[i], roots[j])) for j in range(k)]
        + [Fraction(lat.intersect(d, roots[i]))]
        for i in range(k)
    ]
    # Gaussian elimination with exact fractions.
    for col in range(k):
        pivot = next((r for r in range(col, k) if mat[r][col] != 0), None)
        if pivot is None:
            raise InternalError("dependent simple roots")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(k):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    xs = [mat[i][k] for i in range(k)]
    # Verify d really lies in the span (the pairing system alone does not
    # guarantee it) and that the combination is a nonnegative integer one.
    combo = vsum((vscale(x.numerator, r) for x, r in zip(xs, roots) if x != 0), lat.rank)
    scaled_ok = all(x.denominator == 1 for x in xs)
    if not scaled_ok:
        return None
    if combo != d:
        return None
    if any(x < 0 for x in xs):
        return None
    return tuple(int(x) for x in xs)


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


def is_effective_anticlass_fast(s: SurfaceModel, d: Divisor) -> bool:
    """Effectiveness of a conditionally effective anti-class.

    Only products with the irreducible (-2)-curves are used: if all are
    >= 0 the class is not effective; if some product is <= -2 it is
    effective; otherwise subtracting a curve met with product -1
    preserves the answer, batching pairwise-disjoint such curves (two of
    them meeting positively already forces effectiveness).
    """
    lat = s.lattice
    lat.check_divisor(d)
    if lat.square(d) - lat.k_product(d) != -2:
        raise InputError(f"{d} is not an anti-class")
    if lat.k_product(d) > 0:
        raise InputError("anti-class test requires D.K <= 0")
    roots = s.simple_roots
    cap = max(1, 10 * (lat.rank + abs(lat.k_product(d))))
    current = d
    for _ in range(cap):
        ones = []
        any_negative = False
        for r in roots:
            p = lat.intersect(current, r)
            if p <= -2:
                return True
            if p == -1:
                ones.append(r)
                any_negative = True
        if not any_negative:
            return False
        disjoint = True
        for i in range(len(ones)):
            for j in range(i + 1, len(ones)):
                p = lat.intersect(ones[i], ones[j])
                if p > 0:
                    return True
                if p < 0:
                    disjoint = False
        if disjoint:
            current = vsub(current, vsum(ones, lat.rank))
        else:
            current = vsub(current, ones[0])
    raise InternalError("anti-class loop did not terminate")


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
