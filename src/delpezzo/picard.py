"""Exact integer arithmetic on Picard lattices of rational surfaces.

A divisor class is a plain tuple of integers (coefficients in the basis
of the lattice).  All arithmetic is exact; no floating point is used
anywhere in this package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

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

    @property
    def degree(self) -> int:
        return self.intersect(self.canonical, self.canonical)

    @property
    def num_exceptional(self) -> int:
        """Number of E_i basis vectors (standard lattices only)."""
        return self.rank - 1

    @property
    def is_standard(self) -> bool:
        return self.basis_labels[0] == "L"

    def zero(self) -> Divisor:
        return (0,) * self.rank

    def check_divisor(self, d: Divisor) -> None:
        if len(d) != self.rank:
            raise InputError(
                f"divisor length {len(d)} does not match lattice rank {self.rank}"
            )

    def intersect(self, d1: Divisor, d2: Divisor) -> int:
        self.check_divisor(d1)
        self.check_divisor(d2)
        if self.is_standard:
            # diag(1, -1, ..., -1): avoid the generic double loop.
            s = d1[0] * d2[0]
            for x, y in zip(d1[1:], d2[1:]):
                s -= x * y
            return s
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

    def is_class(self, d: Divisor) -> bool:
        return self.classify_r(d) is not None

    # -- enumeration --------------------------------------------------

    def enumerate_classes(self, r: int) -> tuple[Divisor, ...]:
        """All r-classes, in lexicographic coefficient order.

        Supported for the standard lattices and r in {-2, -1, 0, 1}; these
        are the only cases needed.  The search is bounded in the leading
        coefficient and the bound is widened until a closure margin with no
        solutions is confirmed, so the result is provably complete.
        """
        if r not in SUPPORTED_R:
            raise InputError(f"unsupported r-value {r}; supported: {SUPPORTED_R}")
        if not self.is_standard:
            raise InputError("class enumeration is only provided for standard lattices")
        return _enumerate_standard(self.rank, r)


@lru_cache(maxsize=None)
def _enumerate_standard(rank: int, r: int) -> tuple[Divisor, ...]:
    """Enumerate r-classes on the standard lattice of the given rank.

    An r-class D = (a0; a1..am) satisfies
        a1 + ... + am = -3*a0 + 2 + r      (from D.K = -2 - r)
        a1^2 + ... + am^2 = a0^2 - r       (from D^2 = r).
    """
    m = rank - 1
    found: list[Divisor] = []
    bound = 4
    while True:
        found = []
        boundary_hit = False
        for a0 in range(-bound, bound + 1):
            target_sum = -3 * a0 + 2 + r
            target_sq = a0 * a0 - r
            if target_sq < 0:
                continue
            for tail in _sum_square_solutions(m, target_sum, target_sq):
                found.append((a0,) + tail)
                if abs(a0) == bound:
                    boundary_hit = True
        if not boundary_hit:
            break
        bound += 1
    return tuple(sorted(found))


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


# -- exact linear algebra (fraction-free Bareiss elimination) ------------
#
# Bareiss, Math. Comp. 22 (1968): every intermediate entry is a minor of
# the input, so each division below is exact and all values are integers.


def integer_rank(rows) -> int:
    """Exact rank of an integer matrix."""
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
    return rank


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


def reflect(lattice: PicardLattice, d: Divisor, root: Divisor) -> Divisor:
    """Reflection of d in a (-2)-class: d + (d.root) root."""
    if lattice.classify_r(root) != -2 or lattice.k_product(root) != 0:
        raise InputError(f"{root} is not a (-2)-class root")
    return vadd(d, vscale(lattice.intersect(d, root), root))


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

_TERM_RE = re.compile(r"([+-]?)(\d*)(L(\d*)|E(\d+)|Z|Q(\d+)|C(\d+)|K)")


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
        if not match or match.start() != pos:
            raise InputError(f"cannot parse divisor notation {text!r} at {s[pos:]!r}")
        sign = -1 if match.group(1) == "-" else 1
        mult = sign * int(match.group(2) or "1")
        body = match.group(3)

        def add_L(k):
            coeffs[0] += k

        def add_E(idx, k):
            if not 1 <= idx <= m:
                raise InputError(f"index E{idx} out of range in {text!r}")
            coeffs[idx] += k

        def add_all_E(k):
            for i in range(1, m + 1):
                coeffs[i] += k

        if body == "K":
            add_L(-3 * mult)
            add_all_E(mult)
        elif body == "Z":
            add_L(2 * mult)
            add_all_E(-mult)
        elif body.startswith("L"):
            # "L" is the line class; "L123" means L - E1 - E2 - E3.
            add_L(mult)
            for ch in match.group(4):
                add_E(int(ch), -mult)
        elif body.startswith("E"):
            for ch in match.group(5):
                add_E(int(ch), mult)
        elif body.startswith("Q"):
            add_L(2 * mult)
            add_all_E(-mult)
            for ch in match.group(6):
                add_E(int(ch), mult)
        elif body.startswith("C"):
            add_L(3 * mult)
            add_all_E(-mult)
            for ch in match.group(7):
                add_E(int(ch), -mult)
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
