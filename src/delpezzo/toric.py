"""Toric systems: construction, operations, admissible sequences, and
exceptionality checkers.

A toric system is a cyclically ordered tuple of divisor classes
A_1..A_n with consecutive products 1, all other products 0 and total
sum -K; it encodes a numerically exceptional collection of line
bundles.  Indices are 1-based and cyclic throughout, matching the
window notation A_{k..l}.  Squares sequences are analysed here alone:
`low_entry_rotation` puts the one entry below -2 last and `window_squares`
reads every window's square off the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .effectivity import is_effective, is_lo, is_slo
from .errors import InputError, InternalError
from .picard import (
    Divisor,
    PicardLattice,
    class_tuples,
    generates_lattice,
    reflect,
    vadd,
    vneg,
    vsub,
    vsum,
)
from .surface import SurfaceModel


# -- the toric-system type ---------------------------------------------


@dataclass(frozen=True)
class ToricSystem:
    """Validated toric system on a lattice."""

    lattice: PicardLattice
    terms: tuple[Divisor, ...]

    def __post_init__(self):
        problems = system_violations(self.lattice, self.terms)
        if problems:
            raise InputError("not a toric system: " + "; ".join(problems))

    # -- basics --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.terms)

    def term(self, i: int) -> Divisor:
        """1-based cyclic access."""
        return self.terms[(i - 1) % self.n]

    def squares(self) -> tuple[int, ...]:
        return tuple(self.lattice.square(t) for t in self.terms)

    # -- windows -------------------------------------------------------

    def window_length(self, k: int, l: int) -> int:
        return (l - k) % self.n + 1

    def window(self, k: int, l: int) -> Divisor:
        """Cyclic segment sum A_k + ... + A_l (inclusive, 1-based)."""
        return vsum(
            (self.term(k + i) for i in range(self.window_length(k, l))),
            self.lattice.rank,
        )

    def to_json(self) -> dict:
        return {"degree": self.lattice.degree, "terms": [list(t) for t in self.terms]}


def system_violations(lattice: PicardLattice, terms) -> list[str]:
    """All violated toric-system axioms, with indices (empty when valid)."""
    n = len(terms)
    problems = []
    if n != 12 - lattice.degree:
        problems.append(f"length {n} != 12 - degree = {12 - lattice.degree}")
    for t in terms:
        if len(t) != lattice.rank:
            raise InputError(
                f"divisor length {len(t)} does not match lattice rank {lattice.rank}"
            )
    for i in range(n):
        for j in range(i + 1, n):
            p = lattice.intersect(terms[i], terms[j])
            consecutive = j - i == 1 or (i == 0 and j == n - 1)
            want = 1 if consecutive else 0
            if p != want:
                problems.append(f"A_{i + 1}.A_{j + 1} = {p}, expected {want}")
    if vsum(terms, lattice.rank) != vneg(lattice.canonical):
        problems.append("sum of terms != -K")
    if not problems and not generates_lattice(terms, lattice.rank):
        problems.append("terms do not generate the lattice")
    return problems


def is_int_list(values) -> bool:
    """Is `values` a list of integers?  (JSON true/false are not integers.)"""
    return isinstance(values, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in values
    )


def from_json(data) -> ToricSystem:
    """The system {"degree": d, "terms": [[...], ...]}, raising InputError
    on any other shape, on non-integer entries or on violated axioms."""
    if not isinstance(data, dict) or set(data) != {"degree", "terms"}:
        raise InputError('expected a JSON object {"degree": d, "terms": [[...], ...]}')
    degree, terms = data["degree"], data["terms"]
    if not is_int_list([degree]) or not (
        isinstance(terms, list) and all(is_int_list(t) for t in terms)
    ):
        raise InputError("the degree and every term entry must be integers")
    return ToricSystem(PicardLattice.standard(degree), tuple(tuple(t) for t in terms))


# -- the three operations ----------------------------------------------


def perm(A: ToricSystem, k: int) -> ToricSystem:
    """k-th permutation: (..., A_{k-1}+A_k, -A_k, A_k+A_{k+1}, ...).

    Requires A_k^2 = -2; an involution preserving A^2."""
    if A.lattice.square(A.term(k)) != -2:
        raise InputError(f"perm requires A_{k}^2 = -2")
    n = A.n
    terms = list(A.terms)
    i = (k - 1) % n
    ak = A.terms[i]
    terms[(i - 1) % n] = vadd(A.terms[(i - 1) % n], ak)
    terms[i] = vneg(ak)
    terms[(i + 1) % n] = vadd(ak, A.terms[(i + 1) % n])
    return ToricSystem(A.lattice, tuple(terms))


def shift(A: ToricSystem) -> ToricSystem:
    """Cyclic shift (A_2, ..., A_n, A_1)."""
    return ToricSystem(A.lattice, A.terms[1:] + A.terms[:1])


def symmetry(A: ToricSystem) -> ToricSystem:
    """Symmetry (A_{n-1}, A_{n-2}, ..., A_1, A_n)."""
    return ToricSystem(A.lattice, tuple(reversed(A.terms[:-1])) + A.terms[-1:])


# -- admissible sequences ----------------------------------------------


def augment_sequence(a, m: int) -> tuple[int, ...]:
    """m-th elementary augmentation of an integer sequence, 1 <= m <= n+1."""
    a = tuple(a)
    n = len(a)
    if not 1 <= m <= n + 1:
        raise InputError(f"augmentation index {m} out of range 1..{n + 1}")
    if m == 1:
        return (-1, a[0] - 1) + a[1:-1] + (a[-1] - 1,)
    if m == n + 1:
        return (a[0] - 1,) + a[1:-1] + (a[-1] - 1, -1)
    return a[: m - 2] + (a[m - 2] - 1, -1, a[m - 1] - 1) + a[m:]


def sequence_shift(a) -> tuple[int, ...]:
    a = tuple(a)
    return a[1:] + a[:1]


def sequence_symmetry(a) -> tuple[int, ...]:
    a = tuple(a)
    return tuple(reversed(a[:-1])) + a[-1:]


def canonical_cyclic(a) -> tuple[int, ...]:
    """Least representative under cyclic shifts and symmetries.

    sequence_symmetry followed by shifts realizes full dihedral reversal,
    so the minimum ranges over all rotations of a and of reversed(a)."""
    a = tuple(a)
    rev = tuple(reversed(a))
    return min(
        min(a[i:] + a[:i] for i in range(len(a))),
        min(rev[i:] + rev[:i] for i in range(len(a))),
    )


def _is_hirzebruch_base(a: tuple[int, ...]) -> bool:
    """Is a a rotation of (0, k, 0, -k) or (k, 0, -k, 0) for some integer k?"""
    if len(a) != 4:
        return False
    for i in range(4):
        r = a[i:] + a[:i]
        if r[0] == 0 and r[2] == 0 and r[1] == -r[3]:
            return True
    return False


@lru_cache(maxsize=None)
def _admissible(canon: tuple[int, ...]) -> bool:
    n = len(canon)
    if n == 3:
        return canon == canonical_cyclic((1, 1, 1))
    if n == 4:
        return _is_hirzebruch_base(canon)
    for i in range(n):
        if canon[i] != -1:
            continue
        # Reverse augmentation: drop the -1, add 1 to both cyclic neighbors.
        reduced = list(canon[:i] + canon[i + 1:])
        m = len(reduced)
        reduced[(i - 1) % m] += 1
        reduced[i % m] += 1
        if _admissible(canonical_cyclic(tuple(reduced))):
            return True
    return False


def is_admissible(a) -> bool:
    """Reachable from (0,k,0,-k)/(k,0,-k,0) by elementary augmentations.

    The length-3 plane sequence (1,1,1) is accepted as a base case."""
    a = tuple(int(x) for x in a)
    if len(a) < 3:
        return False
    if sum(a) != 12 - 3 * len(a):
        return False
    return _admissible(canonical_cyclic(a))


# -- classification of strong admissible sequences ---------------------

#: Cyclic strong admissible sequences, one representative per class
#: under shifts and symmetries (row label -> sequence).
TABLE_CYCLIC_STRONG: dict[str, tuple[int, ...]] = {
    "P1xP1": (0, 0, 0, 0),
    "F1": (0, 1, 0, -1),
    "F2": (0, 2, 0, -2),
    "5a": (0, 0, -1, -1, -1),
    "5b": (0, -2, -1, -1, 1),
    "6a": (-1, -1, -1, -1, -1, -1),
    "6b": (-1, -1, -2, -1, -1, 0),
    "6c": (-2, -1, -2, -1, 0, 0),
    "6d": (-2, -1, -2, -2, 0, 1),
    "7a": (-1, -1, -2, -1, -2, -1, -1),
    "7b": (-2, -1, -2, -2, -1, -1, 0),
    "8a": (-2, -1, -2, -1, -2, -1, -2, -1),
    "8b": (-2, -1, -1, -2, -1, -2, -2, -1),
    "8c": (-2, -1, -2, -2, -2, -1, -2, 0),
    "9": (-2, -2, -1, -2, -2, -1, -2, -2, -1),
}


@dataclass(frozen=True)
class KindType:
    """Kind (first/second) and type tag of a strong admissible sequence."""

    kind: str
    type_tag: str


def _is_block(seq: tuple[int, ...]) -> bool:
    """One of (0), (-1,-1) or (-1,-2,...,-2,-1)."""
    if seq == (0,):
        return True
    return (
        len(seq) >= 2
        and seq[0] == -1
        and seq[-1] == -1
        and all(x == -2 for x in seq[1:-1])
    )


def _match_second_kind(a: tuple[int, ...]) -> str | None:
    """Match a (with a_n <= -3) against one type template, or None."""
    n = len(a)
    e = a[-1]
    # IIa: (b, c, d, e) with block sequences b, d and c + e = 4 - n.
    for p in range(1, n - 2):
        b, c, d = a[:p], a[p], a[p + 1 : n - 1]
        if _is_block(b) and _is_block(d) and c >= -2 and c + e == 4 - n:
            return "IIa"
    # IIb: (-2,-1,-2, c, d, e) with c + e = 5 - n.
    if (
        n >= 6
        and a[:3] == (-2, -1, -2)
        and a[3] >= -2
        and _is_block(a[4 : n - 1])
        and a[3] + e == 5 - n
    ):
        return "IIb"
    # IIc: (-2,-1,-2, c, -2,-1,-2, e) with c + e = 6 - n = -2.
    if (
        n == 8
        and a[:3] == (-2, -1, -2)
        and a[4:7] == (-2, -1, -2)
        and a[3] >= -2
        and a[3] + e == -2
    ):
        return "IIc"
    # IIIa: (1, 0, -2,...,-2, -1, 4-n).
    if a == (1, 0) + (-2,) * (n - 4) + (-1, 4 - n):
        return "IIIa"
    # IIIb: (-1, 0, 0, -2,...,-2, -1, 4-n).
    if a == (-1, 0, 0) + (-2,) * (n - 5) + (-1, 4 - n):
        return "IIIb"
    # IIIc: (-1, -2,..,-2, 0, 0, -2,..,-2, -1, 4-n), first -2 run nonempty.
    for t1 in range(1, n - 4):
        t2 = n - 5 - t1
        if t2 < 0:
            break
        if a == (-1,) + (-2,) * t1 + (0, 0) + (-2,) * t2 + (-1, 4 - n):
            return "IIIc"
    # IV: (-2, 0, 1, -2,...,-2, -1, 4-n).
    if a == (-2, 0, 1) + (-2,) * (n - 5) + (-1, 4 - n):
        return "IV"
    # V: (-2, -1, -1, 0, -2,...,-2, -1, 5-n).
    if n >= 6 and a == (-2, -1, -1, 0) + (-2,) * (n - 6) + (-1, 5 - n):
        return "V"
    # VI: (-2, -2, -1, -2, 0, -2,...,-2, -1, 6-n).
    if n >= 7 and a == (-2, -2, -1, -2, 0) + (-2,) * (n - 7) + (-1, 6 - n):
        return "VI"
    return None


def low_entry_rotation(a) -> int:
    """The left rotation k for which a[k:] + a[:k] has the one entry
    below -2 last: 0 when it is last already or when there is none.  Two
    entries below -2 make no strong admissible sequence: InputError."""
    low = [i for i, x in enumerate(a) if x < -2]
    if len(low) > 1:
        raise InputError(f"{tuple(a)} is not strong admissible (two entries < -2)")
    return (low[0] + 1) % len(a) if low else 0


def classify_sequence(a) -> KindType:
    """Kind and type of a strong admissible sequence.

    First kind: matched against the cyclic strong table up to shifts and
    symmetries.  Second kind: matched against the type II-VI templates up
    to a symmetry (which fixes the last entry), after a cyclic shift that
    puts the one entry below -2 last (`low_entry_rotation`)."""
    a = tuple(int(x) for x in a)
    if not is_admissible(a):
        raise InputError(f"{a} is not an admissible sequence")
    k = low_entry_rotation(a)
    a = a[k:] + a[:k]
    if a[-1] >= -2:
        if len(a) == 3:
            return KindType("first", "P2")
        canon = canonical_cyclic(a)
        for label, seq in TABLE_CYCLIC_STRONG.items():
            if canonical_cyclic(seq) == canon:
                return KindType("first", label)
        raise InternalError(f"first-kind sequence {a} missing from the table")
    for cand in (a, sequence_symmetry(a)):
        tag = _match_second_kind(cand)
        if tag is not None:
            return KindType("second", tag)
    raise InternalError(f"second-kind sequence {a} matches no type template")


#: Longest cyclic strong admissible sequence: a toric weak del Pezzo
#: surface has degree >= 3, so at most 9 boundary rays.
CYCLIC_STRONG_LONGEST = 9


def enumerate_cyclic_strong_admissible():
    """All cyclic strong admissible sequences up to shifts and symmetries.

    Bounded augmentation search: every cyclic strong admissible sequence
    reduces (by reverse augmentations, which keep all entries >= -2) to a
    base (0,k,0,-k) with |k| <= 2, so forward search from those bases with
    the >= -2 filter is exhaustive up to CYCLIC_STRONG_LONGEST terms."""
    bases = [(0, 0, 0, 0), (0, 1, 0, -1), (0, 2, 0, -2)]
    seen = {canonical_cyclic(b) for b in bases}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            if len(a) >= CYCLIC_STRONG_LONGEST:
                continue
            for m in range(1, len(a) + 2):
                b = augment_sequence(a, m)
                if any(x < -2 for x in b):
                    continue
                c = canonical_cyclic(b)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(seen, key=lambda s: (len(s), s)))


# -- I(X,A) -------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclic_windows(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every cyclic window A_k + ... + A_l of length 1..n-1, as
    (k, l, positions): k ascending, then the length ascending.  k and l
    are 1-based, the positions 0-based; a window is non-cyclic when it
    avoids position n-1.  Cached, as the checkers ask for it per system."""
    return tuple(
        (k, (k + length - 2) % n + 1, tuple((k - 1 + i) % n for i in range(length)))
        for k in range(1, n + 1)
        for length in range(1, n)
    )


@lru_cache(maxsize=None)
def window_squares(a: tuple[int, ...]) -> tuple[int, ...]:
    """The squares of the windows of `cyclic_windows(len(a))` of a system
    with squares a, in that order: sum(a_p + 2) - 2 over the window's
    positions p, as consecutive terms meet once and others not at all."""
    return tuple(sum(a[p] + 2 for p in pos) - 2 for _, _, pos in cyclic_windows(len(a)))


def is_ixa_window(a, positions) -> bool:
    """Are the entries of a at positions -2 except exactly one -1?"""
    return all(a[p] in (-1, -2) for p in positions) and (
        sum(a[p] + 2 for p in positions) == 1
    )


def compute_IXA_windows(a) -> tuple[tuple[int, int], ...]:
    """Cyclic windows (k, l) whose entries are -2 except exactly one -1.

    These are precisely the windows whose sums are the (-1)-classes
    reachable as terms of permutation-equivalent systems."""
    a = tuple(int(x) for x in a)
    windows = zip(cyclic_windows(len(a)), window_squares(a))
    return tuple((k, l) for (k, l, p), q in windows if q == -1 and is_ixa_window(a, p))


def compute_IXA(A: ToricSystem) -> frozenset[Divisor]:
    """The set I(X,A) of (-1)-classes realized as window sums."""
    return frozenset(A.window(k, l) for k, l in compute_IXA_windows(A.squares()))


# -- exceptionality checkers -------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with the first violating window (or None)."""

    ok: bool
    witness: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def _noncyclic_windows(n: int):
    return (w for w in cyclic_windows(n) if n - 1 not in w[2])


def is_exceptional(s: SurfaceModel, A: ToricSystem, method: str = "auto") -> CheckResult:
    return _check(s, A, "exceptional", method)


def is_strong_exceptional(
    s: SurfaceModel, A: ToricSystem, method: str = "auto"
) -> CheckResult:
    return _check(s, A, "strong", method)


def is_cyclic_strong_exceptional(
    s: SurfaceModel, A: ToricSystem, method: str = "auto"
) -> CheckResult:
    return _check(s, A, "cyclic-strong", method)


def _check(s: SurfaceModel, A: ToricSystem, what: str, method: str) -> CheckResult:
    """With method "auto", the optimized checker where its hypothesis
    holds (every A_i^2 >= -2, the last one exempt unless cyclic) and the
    reference checker elsewhere; "reference" always uses the latter."""
    if method not in ("auto", "reference"):
        raise InputError(f"unknown checker method {method!r}")
    sq = A.squares() if what == "cyclic-strong" else A.squares()[:-1]
    if method == "reference" or any(x < -2 for x in sq):
        return _check_reference(s, A, what)
    return _check_optimized(s, A, what)


def _check_reference(s: SurfaceModel, A: ToricSystem, what: str) -> CheckResult:
    if what == "cyclic-strong":
        windows = cyclic_windows(A.n)
    else:
        windows = _noncyclic_windows(A.n)
    test = is_lo if what == "exceptional" else is_slo
    for k, l, _ in windows:
        if not test(s, A.window(k, l)):
            return CheckResult(False, (k, l))
    return CheckResult(True, None)


def _through_n_windows(sq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Cyclic windows through position n of square a_n, latest start first.
    Under the hypothesis a_i >= -2 (i < n) these are the minimal ones: all
    their other entries are -2."""
    n = len(sq)
    windows = zip(cyclic_windows(n), window_squares(sq))
    through = [(k, l) for (k, l, pos), q in windows if n - 1 in pos and q == sq[-1]]
    return sorted(through, key=lambda kl: -kl[0])


def _check_optimized(s: SurfaceModel, A: ToricSystem, what: str) -> CheckResult:
    sq = A.squares()
    n = A.n
    windows = zip(cyclic_windows(n), window_squares(sq))
    roots = [(k, l, n - 1 in pos) for (k, l, pos), q in windows if q == -2]

    def anti_effective(d):
        return is_effective(s, vneg(d))

    def effective(d):
        return is_effective(s, d)

    if what == "exceptional" and sq[-1] >= -2 or what == "cyclic-strong":
        strong = what == "cyclic-strong"
        for k, l, _ in roots:
            d = A.window(k, l)
            if anti_effective(d) or (strong and effective(d)):
                return CheckResult(False, (k, l))
        return CheckResult(True, None)

    # Second-kind exceptional test: non-cyclic (-2)-windows plus the
    # minimal through-n windows (square = A_n^2 <= -2).
    noncyclic = [(k, l) for k, l, through_n in roots if not through_n]
    for k, l in noncyclic:
        if anti_effective(A.window(k, l)):
            return CheckResult(False, (k, l))
    if sq[-1] <= -2:
        for k, l in _through_n_windows(sq):
            if anti_effective(A.window(k, l)):
                return CheckResult(False, (k, l))
    if what == "strong":
        for k, l in noncyclic:
            if effective(A.window(k, l)):
                return CheckResult(False, (k, l))
    return CheckResult(True, None)


# -- elementary augmentations and blow-downs ---------------------------


def is_elementary_augmentation(s: SurfaceModel, A: ToricSystem) -> int | None:
    """1-based index i with A_i an irreducible (-1)-curve, or None."""
    irr = s.irr_lines_set()
    for i, t in enumerate(A.terms, start=1):
        if t in irr:
            return i
    return None


def _reduction_word(lattice: PicardLattice, d: Divisor) -> tuple[Divisor, ...]:
    """Reflection roots sending the (-1)-class d to the last basis vector.

    Greedy Cremona descent: while the L-coefficient is positive, reflect
    in L - E_i - E_j - E_k for the three smallest (most negative)
    E-coefficients, which lowers it; then the class is some E_i, which a
    transposition root moves to E_last.  In degree 7 the class L - E1 - E2
    contracts onto P1 x P1, which no standard lattice holds: InputError."""
    if lattice.classify_r(d) != -1 or not lattice.is_standard:
        raise InputError(f"{d} is not a (-1)-class on a standard lattice")
    m = lattice.num_exceptional
    word = []
    current = d
    guard = 0
    while current[0] > 0:
        if m < 3:
            raise InputError(
                f"contracting {d} gives P1 x P1, which no standard lattice holds"
            )
        guard += 1
        if guard > 100:
            raise InternalError(f"Cremona descent did not terminate for {d}")
        idx = sorted(range(1, m + 1), key=lambda i: current[i])[:3]
        root = tuple(
            1 if i == 0 else (-1 if i in idx else 0) for i in range(m + 1)
        )
        word.append(root)
        current = reflect(lattice, current, root)
    # Now current = E_i for exactly one i (a (-1)-class with zero degree).
    i = current.index(1)
    if current[0] != 0 or current != tuple(
        1 if j == i else 0 for j in range(m + 1)
    ):
        raise InternalError(f"descent terminated at non-exceptional {current}")
    if i != m:
        root = tuple(
            1 if j == i else (-1 if j == m else 0) for j in range(m + 1)
        )
        word.append(root)
    return tuple(word)


def blow_down(s: SurfaceModel, A: ToricSystem, i: int) -> tuple[SurfaceModel, ToricSystem]:
    """Contract the irreducible (-1)-curve A_i; returns the smaller model
    and the system A' of which A is the elementary augmentation at i."""
    lat = A.lattice
    e = A.term(i)
    if e not in s.irr_lines_set():
        raise InputError(f"A_{i} = {e} is not an irreducible (-1)-curve")
    word = _reduction_word(lat, e)

    def w(d: Divisor) -> Divisor:
        for root in word:
            d = reflect(lat, d, root)
        return d

    last = tuple(int(j == lat.rank - 1) for j in range(lat.rank))
    if w(e) != last:
        raise InternalError("reduction word does not send A_i to E_last")

    def contract(d: Divisor) -> Divisor:
        v = w(d)
        if v[-1] != 0:
            raise InternalError(f"{d} does not descend to the blow-down")
        return v[:-1]

    new_lat = PicardLattice.standard(lat.degree + 1)
    new_roots = tuple(
        sorted(contract(r) for r in s.simple_roots if lat.intersect(r, e) == 0)
    )
    new_surface = SurfaceModel(new_lat, new_roots, name=f"{s.name}|contract A_{i}")
    # Add E_last back to both cyclic neighbors, then delete slot i.
    n = A.n
    idx = (i - 1) % n
    terms = list(A.terms)
    terms[(idx - 1) % n] = vadd(terms[(idx - 1) % n], e)
    terms[(idx + 1) % n] = vadd(terms[(idx + 1) % n], e)
    del terms[idx]
    new_terms = tuple(contract(t) for t in terms)
    return new_surface, ToricSystem(new_lat, new_terms)


def bring_window_to_term(A: ToricSystem, k: int, m: int, l: int) -> ToricSystem:
    """Permutations making A_{k..l} a term (at position m, the -1 slot).

    Requires squares -2 on [k..l] except -1 at the cyclic position m.
    Applies perm_k ... perm_{m-1} then perm_l ... perm_{m+1}."""
    n = A.n
    B = A
    j = k
    while (j - m) % n != 0:
        B = perm(B, j)
        j = j % n + 1
    j = l
    while (j - m) % n != 0:
        B = perm(B, j)
        j = (j - 2) % n + 1
    if B.term(m) != A.window(k, l):
        raise InternalError(
            f"permutation word failed to realize window [{k}..{l}] at {m}"
        )
    return B


@dataclass(frozen=True)
class AugmentationStep:
    """One contraction in an augmentation chain."""

    surface: str
    index: int
    contracted: Divisor


def augmentation_chain(s: SurfaceModel, A: ToricSystem):
    """Decompose A by repeated (perm + blow-down) steps.

    Returns the list of steps down to rank <= 2 (P1 x P1 included), or
    None as soon as no irreducible (-1)-curve is reachable (I(X,A)
    contains no irreducible class) — such systems are the census
    counterexample candidates."""
    steps = []
    current_s, current_A = s, A
    while current_A.lattice.rank > 2:
        i = is_elementary_augmentation(current_s, current_A)
        if i is None:
            irr = current_s.irr_lines_set()
            sq = current_A.squares()
            found = next(
                (
                    (k, next(p for p in pos if sq[p] == -1) + 1, l)
                    for k, l, pos in cyclic_windows(current_A.n)
                    if is_ixa_window(sq, pos) and current_A.window(k, l) in irr
                ),
                None,
            )
            if found is None:
                return None
            current_A = bring_window_to_term(current_A, *found)
            i = is_elementary_augmentation(current_s, current_A)
            if i is None:
                raise InternalError("window realization produced no term")
        e = current_A.term(i)
        if current_A.lattice.degree == 7 and e[0] > 0:
            # e = L - E1 - E2 contracts onto P1 x P1, a rank-2 Hirzebruch
            # surface with no standard lattice: the chain ends there.
            name = f"{current_s.name}|contract A_{i} onto P1xP1"
            steps.append(AugmentationStep(name, i, e))
            break
        current_s, current_A = blow_down(current_s, current_A, i)
        steps.append(AugmentationStep(current_s.name, i, e))
    return steps


# -- realizing a squares sequence as a system --------------------------


def find_system_with_squares(
    lattice: PicardLattice, squares
) -> ToricSystem | None:
    """First toric system with the given A^2: the first head A_1..A_{n-1}
    that `picard.class_tuples` yields (consecutive products 1, others 0)
    whose forced last term -K - (A_1 + ... + A_{n-1}) completes a system.

    Every entry except the one below -2 (the last, if there is none) must
    lie in -2..1, the range `enumerate_classes` covers.  A sequence whose
    one entry below -2 is not last is rotated to put it last
    (`low_entry_rotation`), and the system found is shifted back."""
    squares = tuple(int(x) for x in squares)
    n = len(squares)
    if n != 12 - lattice.degree:
        raise InputError(
            f"sequence length {n} does not match 12 - degree = "
            f"{12 - lattice.degree}"
        )
    k = low_entry_rotation(squares)
    if any(not -2 <= x <= 1 for i, x in enumerate(squares) if i != (k - 1) % n):
        raise InputError(
            f"cannot search for a system with squares {squares}: every entry "
            f"except the one below -2 must lie in -2..1"
        )
    if k:
        A = find_system_with_squares(lattice, squares[k:] + squares[:k])
        return None if A is None else ToricSystem(lattice, A.terms[-k:] + A.terms[:-k])
    pools = [lattice.enumerate_classes(r) for r in squares[:-1]]
    products = [[int(i == j + 1) for i in range(n - 1)] for j in range(n - 1)]
    minus_k = vneg(lattice.canonical)
    for head in class_tuples(lattice, pools, products):
        terms = head + (vsub(minus_k, vsum(head, lattice.rank)),)
        if lattice.square(terms[-1]) == squares[-1] and not system_violations(
            lattice, terms
        ):
            return ToricSystem(lattice, terms)
    return None
