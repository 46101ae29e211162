"""Exact integer arithmetic on Picard lattices of rational surfaces.

A divisor class is a plain tuple of integers (coefficients in the basis
of the lattice).  All arithmetic is exact; no floating point is used
anywhere in this package.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InputError, InternalError

Divisor = tuple[int, ...]

#: r-values supported by enumerate_classes; windows of larger square are
#: handled symbolically downstream and never enumerated.
SUPPORTED_R = (-2, -1, 0, 1)


def vadd(a: Divisor, b: Divisor) -> Divisor:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Divisor, b: Divisor) -> Divisor:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Divisor) -> Divisor:
    return tuple(-x for x in a)


def vscale(k: int, a: Divisor) -> Divisor:
    return tuple(k * x for x in a)


def vsum(divisors, rank: int) -> Divisor:
    total = [0] * rank
    for d in divisors:
        for i, x in enumerate(d):
            total[i] += x
    return tuple(total)


@dataclass(frozen=True)
class PicardLattice:
    """Integer lattice with intersection form and canonical class."""

    rank: int
    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: Divisor

    def __post_init__(self):
        if len(self.basis_labels) != self.rank or len(self.gram) != self.rank:
            raise InputError("basis labels / gram size must match rank")
        for row in self.gram:
            if len(row) != self.rank:
                raise InputError("gram matrix must be square of size rank")
        if self.gram != tuple(tuple(r) for r in zip(*self.gram)):
            raise InputError("gram matrix must be symmetric")

    # -- constructors -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def standard(degree: int) -> "PicardLattice":
        """Lattice of a blow-up of the plane in 9 - degree points.

        Basis L, E1..E_{9-d}; gram diag(1, -1, ..., -1); K = -3L + sum E_i.
        """
        if not 1 <= degree <= 9:
            raise InputError(f"degree must be in 1..9, got {degree}")
        n = 9 - degree
        labels = ("L",) + tuple(f"E{i}" for i in range(1, n + 1))
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1))
            for i in range(n + 1)
        )
        canonical = (-3,) + (1,) * n
        return PicardLattice(n + 1, labels, gram, canonical)

    @staticmethod
    @lru_cache(maxsize=None)
    def hirzebruch() -> "PicardLattice":
        """Rank-2 lattice of F0/F2 in the fiber-class basis: gram [[0,1],[1,0]]."""
        return PicardLattice(2, ("F", "G"), ((0, 1), (1, 0)), (-2, -2))

    # -- basic arithmetic ---------------------------------------------

    @cached_property
    def degree(self) -> int:
        return self.intersect(self.canonical, self.canonical)

    @property
    def num_exceptional(self) -> int:
        """Number of E_i basis vectors (standard lattices only)."""
        return self.rank - 1

    @cached_property
    def is_standard(self) -> bool:
        return self.basis_labels[0] == "L"

    def zero(self) -> Divisor:
        return (0,) * self.rank

    def intersect(self, d1: Divisor, d2: Divisor) -> int:
        """d1 . d2, refusing a divisor whose length is not the rank.  Every
        decider pairs its input first, so this is where a length is checked."""
        if not len(d1) == len(d2) == self.rank:
            bad = len(d1) if len(d1) != self.rank else len(d2)
            raise InputError(
                f"divisor length {bad} does not match lattice rank {self.rank}"
            )
        if self.is_standard:
            # diag(1, -1, ..., -1): a0 b0 - sum a_i b_i.
            return 2 * d1[0] * d2[0] - sum(map(operator.mul, d1, d2))
        return sum(
            d1[i] * self.gram[i][j] * d2[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def square(self, d: Divisor) -> int:
        return self.intersect(d, d)

    def k_product(self, d: Divisor) -> int:
        return self.intersect(d, self.canonical)

    def chi(self, d: Divisor) -> int:
        """Euler characteristic 1 + D.(D - K)/2 (Riemann-Roch)."""
        num = self.intersect(d, vsub(d, self.canonical))
        if num % 2 != 0:
            raise InternalError(f"odd self-pairing in chi for {d}")
        return 1 + num // 2

    def classify_r(self, d: Divisor):
        """Return r = D^2 when D^2 + D.K = -2 (numerically left-orthogonal), else None."""
        sq = self.square(d)
        if sq + self.k_product(d) == -2:
            return sq
        return None

    # -- enumeration --------------------------------------------------

    def enumerate_classes(self, r: int) -> tuple[Divisor, ...]:
        """All r-classes, in lexicographic coefficient order.

        Supported for the standard lattices and r in {-2, -1, 0, 1}; these
        are the only cases needed.  The leading coefficient runs over the
        exact interval of `leading_coefficient_range`, so the result is
        complete.
        """
        if r not in SUPPORTED_R:
            raise InputError(f"unsupported r-value {r}; supported: {SUPPORTED_R}")
        if not self.is_standard:
            raise InputError("class enumeration is only provided for standard lattices")
        return _enumerate_standard(self.rank, r)


def leading_coefficient_range(m: int, s: int, k: int) -> range:
    """Every leading coefficient a0 of a class (a0; a1..am) with square s
    and K-product k on the standard lattice with m exceptional classes.

    Such a class has a1 + ... + am = -3 a0 - k and a1^2 + ... + am^2 =
    a0^2 - s.  Cauchy-Schwarz, (sum a_i)^2 <= m sum a_i^2, turns these into
    (c a0 + 3k)^2 <= m (k^2 - c s) with c = K^2 = 9 - m > 0.
    """
    c = 9 - m
    r = math.isqrt(m * (k * k - c * s))
    # ceil((-3k - r) / c) .. floor((-3k + r) / c)
    return range(-((3 * k + r) // c), (r - 3 * k) // c + 1)


@lru_cache(maxsize=None)
def _enumerate_standard(rank: int, r: int) -> tuple[Divisor, ...]:
    """Enumerate r-classes on the standard lattice of the given rank.

    An r-class D = (a0; a1..am) satisfies
        a1 + ... + am = -3*a0 + 2 + r      (from D.K = -2 - r)
        a1^2 + ... + am^2 = a0^2 - r       (from D^2 = r).
    """
    m = rank - 1
    return tuple(sorted(
        (a0,) + tail
        for a0 in leading_coefficient_range(m, r, -2 - r)
        for tail in _sum_square_solutions(m, -3 * a0 + 2 + r, a0 * a0 - r)
    ))


def _sum_square_solutions(m: int, total: int, total_sq: int):
    """Integer m-tuples with given sum and sum of squares (DFS with pruning)."""
    if m == 0:
        if total == 0 and total_sq == 0:
            yield ()
        return
    # Cauchy-Schwarz: with m entries, sum^2 <= m * sum_of_squares.
    if total * total > m * total_sq:
        return
    lo, hi = -math.isqrt(total_sq), math.isqrt(total_sq)
    for a in range(lo, hi + 1):
        yield from (
            (a,) + rest
            for rest in _sum_square_solutions(m - 1, total - a, total_sq - a * a)
        )


def class_tuples(lattice: PicardLattice, pools, products):
    """Every tuple (x_0, ..., x_{k-1}) with x_i in pools[i] and
    x_j . x_i = products[j][i] for all j < i, depth first in pool order."""
    chosen: list[Divisor] = []

    def extend(i: int):
        if i == len(pools):
            yield tuple(chosen)
            return
        for cand in pools[i]:
            if all(
                lattice.intersect(x, cand) == products[j][i]
                for j, x in enumerate(chosen)
            ):
                chosen.append(cand)
                yield from extend(i + 1)
                chosen.pop()

    return extend(0)


# -- exact linear algebra (fraction-free Bareiss elimination) ------------
#
# Bareiss, Math. Comp. 22 (1968): every intermediate entry is a minor of
# the input, so each division below is exact and all values are integers.


def _bareiss(rows) -> tuple[int, int]:
    """(rank, last pivot) of an integer matrix.  The last pivot of a
    nonsingular square matrix is its determinant up to sign."""
    m = [[int(x) for x in row] for row in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            m[r] = [(p * x - m[r][col] * y) // prev for x, y in zip(m[r], m[rank])]
        prev = p
        rank += 1
    return rank, prev


def integer_rank(rows) -> int:
    """Exact rank of an integer matrix."""
    return _bareiss(rows)[0]


def generates_lattice(rows, rank: int) -> bool:
    """Do the integer rows (of length rank) span Z^rank?  Exactly when the
    gcd of their rank x rank minors is 1."""
    g = 0
    for minor in itertools.combinations(rows, rank):
        found, pivot = _bareiss(minor)
        g = math.gcd(g, pivot if found == rank else 0)
        if g == 1:
            return True
    return False


def integer_adjugate(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) of a nonsingular square integer matrix A, so that
    adj @ A == A @ adj == det * I.

    Gauss-Jordan form of the elimination on [A | I]: it ends at
    [d I | d A^-1] with d the last pivot, which is det A up to the sign
    of the row swaps.
    """
    n = len(rows)
    m = [
        [int(x) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if any(len(row) != 2 * n for row in m):
        raise InputError("the adjugate needs a square matrix")
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise InputError("singular matrix has no integer inverse")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[col])]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in m), sign * prev


@lru_cache(maxsize=None)
def _standard_roots(rank: int) -> frozenset[Divisor]:
    return frozenset(_enumerate_standard(rank, -2))


def is_root(lattice: PicardLattice, root: Divisor) -> bool:
    """Whether root is a (-2)-class, i.e. root^2 = -2 and K.root = 0.

    On standard lattices the (-2)-classes are enumerated once, so this is a
    set lookup.
    """
    if lattice.is_standard:
        return tuple(root) in _standard_roots(lattice.rank)
    return lattice.classify_r(root) == -2 and lattice.k_product(root) == 0


def reflect(lattice: PicardLattice, d: Divisor, root: Divisor) -> Divisor:
    """Reflection of d in a (-2)-class: d + (d.root) root."""
    if not is_root(lattice, root):
        raise InputError(f"{root} is not a (-2)-class root")
    k = lattice.intersect(d, root)
    return tuple(x + k * y for x, y in zip(d, root))


# -- shorthand divisor notation ---------------------------------------
#
# On a standard lattice with exceptional classes E1..Em:
#   "L"           the line class
#   "E25"         E2 + E5 (each digit is one index)
#   "L25"         L - E2 - E5
#   "Z"           2L - (E1 + ... + Em)
#   "Q25"         Z + E2 + E5
#   "C6"          -K - E6 = 3L - (E1+...+Em) - E6
#   "K"           the canonical class
# Terms may carry integer coefficients and be combined with + and -,
# e.g. "2L-E1-2E2-E5-E7" or "3L-E12345567" (repeated digits add up).

#: Each term letter's (L coefficient, coefficient of every E_i,
#: coefficient of each listed E_i).
_TERM_COEFFS = {
    "L": (1, 0, -1),
    "E": (0, 0, 1),
    "Z": (2, -1, 0),
    "Q": (2, -1, 1),
    "C": (3, -1, -1),
    "K": (-3, 1, 0),
}
_TERM_RE = re.compile(r"([+-]?)(\d*)(L\d*|[EQC]\d+|Z|K)")


def parse_divisor(lattice: PicardLattice, text: str) -> Divisor:
    """Parse shorthand divisor notation on a standard lattice."""
    if not lattice.is_standard:
        raise InputError("shorthand notation is defined on standard lattices only")
    s = text.replace(" ", "")
    if s == "0":
        return lattice.zero()
    coeffs = [0] * lattice.rank
    m = lattice.num_exceptional
    pos = 0
    while pos < len(s):
        match = _TERM_RE.match(s, pos)
        if not match:
            raise InputError(f"cannot parse divisor notation {text!r} at {s[pos:]!r}")
        sign, count, body = match.groups()
        mult = (-1 if sign == "-" else 1) * int(count or "1")
        line, every, listed = _TERM_COEFFS[body[0]]
        coeffs[0] += line * mult
        for i in range(1, m + 1):
            coeffs[i] += every * mult
        for idx in map(int, body[1:]):
            if not 1 <= idx <= m:
                raise InputError(f"index E{idx} out of range in {text!r}")
            coeffs[idx] += listed * mult
        pos = match.end()
    return tuple(coeffs)


def parse_divisor_list(lattice: PicardLattice, text: str) -> tuple[Divisor, ...]:
    """Parse a comma-separated list of shorthand divisors."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_divisor(lattice, t) for t in text.split(","))


def format_divisor(lattice: PicardLattice, d: Divisor) -> str:
    """Human-readable rendering, e.g. '2L-E1-2E2-E5-E7'."""
    parts = []
    for coeff, label in zip(d, lattice.basis_labels):
        if coeff == 0:
            continue
        mag = abs(coeff)
        term = ("" if mag == 1 else str(mag)) + label
        parts.append(("-" if coeff < 0 else "+") + term)
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out
