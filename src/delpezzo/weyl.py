"""Weyl groups of Picard lattices: enumeration, orbits, stabilizers.

The group W is generated by reflections in the simple roots
E_i - E_{i+1} and L - E1 - E2 - E3.  Its elements are enumerated by
reverse search (Avis & Fukuda 1996) over the Coxeter-length tree of W
(Bjorner & Brenti, GTM 231).  A regular dominant marker rho pairs
positively with every simple root, so w -> w.rho is a bijection and the
pairings of w.rho with the simple roots give the left descents of w.
Each non-identity element has exactly one parent, s_j w with j its
smallest descent, so W is a tree walked layer by layer with no membership
test: the identity carried in lockstep with the marker reaches every
element exactly once, as the stack of basis-vector images w(e_i).  The
walk depends on the lattice alone; the orbit of any vector v is v @ w
over the walk.  The layer sizes are checked against the Poincare
polynomial of W.

A simple reflection acts on coordinates directly: the one in E_i - E_{i+1}
swaps two of them, the one in L - E1 - E2 - E3 moves t = a0+a1+a2+a3 from
a1..a3 to a0.  W preserves the form and fixes K, so every image of a
vector v keeps v^2 and K.v, and Cauchy-Schwarz turns these into a bound on
every coordinate of the whole orbit (`orbit_bound`).  The walk is stored
in the narrowest integer type that bound allows, proven once per walk
rather than checked per row: int8 elements in every degree (entries up to
17 in degree 1), int8 markers in degrees 2-7 and int16 in degree 1.
Everything else is int64.

Stabilizers of root sets R are found without scanning W: an element
is determined by the images of a basis of roots and K, which are roots
with the same products, so a breadth-first search over the basis
positions (R's own roots first, mapped into R) costs about |Stab|.  Each
full assignment is solved exactly with the integer adjugate of the basis
and kept when it is an integral isometry permuting R.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, InternalError, ResourceError
from .picard import Divisor, PicardLattice, integer_adjugate, integer_rank, is_root
from .picard import leading_coefficient_range

@lru_cache(maxsize=None)
def _physical_memory() -> int:
    """Bytes of physical memory, the limit of one orbit layer and the next."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def simple_reflection_roots(lattice: PicardLattice) -> tuple[Divisor, ...]:
    """Simple roots generating W: E_i - E_{i+1}, plus L - E1 - E2 - E3."""
    if not lattice.is_standard:
        raise InputError("Weyl enumeration is defined on standard lattices")
    m = lattice.num_exceptional
    roots = []
    for i in range(1, m):
        roots.append(
            tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(m + 1))
        )
    if m >= 3:
        roots.append(tuple(1 if j == 0 else (-1 if j <= 3 else 0) for j in range(m + 1)))
    return tuple(roots)


@lru_cache(maxsize=None)
def regular_marker(lattice: PicardLattice) -> Divisor:
    """An integer vector pairing 1 with every simple root (hence positively
    with every positive root), so its W-stabilizer is trivial."""
    m = lattice.num_exceptional
    if m < 2:
        v = (0,) * lattice.rank
    elif m == 2:
        v = (0, 1, 2)
    else:
        t = -((m + 1) // 2)
        es = tuple(t + i for i in range(m))
        v = (1 - (es[0] + es[1] + es[2]),) + es
    for root in simple_reflection_roots(lattice):
        if lattice.intersect(v, root) != 1:
            raise InternalError(f"marker {v} is not dominant-regular at {root}")
    return v


# -- orbit reverse search ----------------------------------------------

#: Degrees of the basic invariants of W, by del Pezzo degree: A1, A1+A2,
#: A4, D5, E6, E7, E8 for degrees 7..1.
INVARIANT_DEGREES = {
    7: (2,),
    6: (2, 2, 3),
    5: (2, 3, 4, 5),
    4: (2, 4, 5, 6, 8),
    3: (2, 5, 6, 8, 9, 12),
    2: (2, 6, 8, 10, 12, 14, 18),
    1: (2, 8, 12, 14, 18, 20, 24, 30),
}


@lru_cache(maxsize=None)
def poincare_coefficients(degree: int) -> tuple[int, ...]:
    """Elements of W per Coxeter length: the coefficients of the Poincare
    polynomial prod (1 + q + ... + q^(d-1)) over the invariant degrees d."""
    coeffs = [1]
    for d in INVARIANT_DEGREES[degree]:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def reflect_rows(rows: np.ndarray, i: int) -> None:
    """Apply the i-th simple reflection (in the order of
    `simple_reflection_roots`) to the row vectors rows [..., rank], in place.

    The reflection in E_j - E_{j+1} swaps coordinates j and j+1.  The one in
    L - E1 - E2 - E3 adds t = a0 + a1 + a2 + a3 to a0 and subtracts it from
    a1..a3; t is summed in int64, and the results are written back in the
    dtype of `rows`, which must hold them (see `orbit_bound`).
    """
    if i < rows.shape[-1] - 2:
        rows[..., [i + 1, i + 2]] = rows[..., [i + 2, i + 1]]
    else:
        t = rows[..., :4].sum(axis=-1, dtype=np.int64)
        rows[..., 0] += t
        rows[..., 1:4] -= t[..., None]


def orbit_bound(lattice: PicardLattice, vectors) -> np.ndarray:
    """[len(vectors), rank] int64: for each vector v, a bound on the
    magnitude of every coordinate of every image w.v, w in W.

    W preserves the form and fixes K, so every image of v has square s = v^2
    and K-product k = K.v: its leading coefficient a0 lies in
    `picard.leading_coefficient_range`, and then every a_i^2 <= a0^2 - s.
    """
    if not lattice.is_standard:
        raise InputError("orbit bounds are defined on standard lattices")
    m = lattice.num_exceptional
    out = []
    for v in vectors:
        v = tuple(int(x) for x in v)
        s = lattice.intersect(v, v)
        a0s = leading_coefficient_range(m, s, lattice.intersect(lattice.canonical, v))
        a0 = max(abs(a0s[0]), abs(a0s[-1]))
        out.append((a0,) + (math.isqrt(a0 * a0 - s),) * m)
    return np.array(out, dtype=np.int64).reshape(-1, lattice.rank)


def narrowest_int_type(bound: int) -> np.dtype:
    """The narrowest of int8..int64 holding every integer of magnitude <= bound."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise InputError(f"orbit coordinates up to {bound} do not fit int64")


@dataclass
class OrbitLayer:
    """The elements of W of Coxeter length `index`, with their markers
    w.rho.  Row i of an element is w(e_i), so a row vector v maps to
    v @ w.  Both are stored in the narrowest integer type that
    `orbit_bound` proves holds the whole walk (int8 elements in every
    degree; int8 markers in degrees 2-7, int16 in degree 1).

    Row k is row `parents[k]` of the previous layer composed with the
    simple reflection i (in the order of `simple_reflection_roots`) with
    blocks[i] <= k < blocks[i + 1].  Both are None on layer 0 only."""

    index: int
    markers: np.ndarray  # [N, rank]
    elements: np.ndarray  # [N, rank, rank]
    total_so_far: int
    parents: np.ndarray | None = None  # [N] intp
    blocks: np.ndarray | None = None  # [generators + 1] row bounds


def orbit_layers(
    lattice: PicardLattice,
    *,
    max_layers: int | None = None,
    row_bytes: int = 0,
):
    """Yield the elements of W layer by layer, by Coxeter length.

    Layer 0 is the identity.  Layer k holds the elements of length k, each
    exactly once, in a deterministic order, with each row's parent and
    generator (`OrbitLayer.parents`, `OrbitLayer.blocks`).  Every layer's
    size is checked against the Poincare polynomial of W.

    The reflections act on the coordinates directly (`reflect_rows`), and
    markers and elements are kept in the narrowest integer types that
    `orbit_bound` allows, so no image can overflow.

    Before each layer, the memory of that layer and the current one is
    estimated, with `row_bytes` more per row for what the caller keeps
    beside each row of both layers; past the machine's physical memory
    the walk raises `ResourceError` rather than start it.

    Every layer is a function of the lattice and its index, so the walk
    keeps no state beyond the current layer: to continue a cut traversal,
    walk again from layer 0.
    """
    roots = simple_reflection_roots(lattice)
    if not roots:
        raise InputError("trivial Weyl group: no simple roots on this lattice")
    gram = np.array(lattice.gram, dtype=np.int64)
    root_arr = np.array(roots, dtype=np.int64)
    pairing = gram @ root_arr.T  # markers @ pairing: products with simple roots
    cartan = (root_arr @ pairing).tolist()
    # Each product with a simple root is a signed sum of a few coordinates.
    pair_terms = [
        [(c, int(pairing[c, i])) for c in np.flatnonzero(pairing[:, i])]
        for i in range(len(roots))
    ]
    sizes = poincare_coefficients(lattice.degree)
    marker0 = np.array([regular_marker(lattice)], dtype=np.int64)
    eye = np.eye(lattice.rank, dtype=np.int64)
    layer = OrbitLayer(
        0,
        marker0.astype(narrowest_int_type(int(orbit_bound(lattice, marker0).max()))),
        eye[None].astype(narrowest_int_type(int(orbit_bound(lattice, eye).max()))),
        1,
    )
    yield layer

    while True:
        index = layer.index + 1
        if max_layers is not None and index > max_layers:
            return
        expected = sizes[index] if index < len(sizes) else 0
        markers, elements = layer.markers, layer.elements
        n, rank = markers.shape
        # this layer and the next (markers, elements, parents), plus the pairings
        per = (markers.itemsize + elements.itemsize * rank) * rank + 8 + row_bytes
        needed = (n + expected) * per + n * (len(roots) + rank) * 2
        limit = _physical_memory()
        if needed > limit:
            raise ResourceError(
                f"orbit layer {index} needs ~{needed} bytes, more than the "
                f"{limit} bytes of physical memory; shard the traversal"
            )
        # m = w.rho has children s_i.m for the i that lengthen w (m.a_i > 0)
        # and are the smallest descent of s_i.w: for j < i, s_i.m pairs
        # positively with a_j.  So every element has exactly one parent.
        # pair[i] = m.a_i = rho.(w^-1 a_i) is the height of a root, and its
        # partial sums add at most four coordinates of the marker, each at
        # most 148 (`orbit_bound`, degree 1): int16 holds them all.
        coords = markers.T.astype(np.int16)
        pair = [sum(g * coords[c] for c, g in terms) for terms in pair_terms]
        children = []
        for i in range(len(roots)):
            mask = pair[i] > 0
            for j in range(i):
                mask &= pair[j] + pair[i] * cartan[i][j] > 0
            children.append(np.flatnonzero(mask))
        rows = np.concatenate(children)
        blocks = np.cumsum([0] + [sel.size for sel in children])
        count = rows.size
        if count != expected:
            raise InternalError(
                f"orbit layer {index} has {count} elements, but the Poincare "
                f"polynomial of W gives {expected} (internal invariant violated)"
            )
        if count == 0:
            return
        markers, elements = markers[rows], elements[rows]
        for i, (lo, hi) in enumerate(zip(blocks[:-1], blocks[1:])):
            reflect_rows(markers[lo:hi], i)
            reflect_rows(elements[lo:hi], i)
        layer = OrbitLayer(
            index, markers, elements, layer.total_so_far + count, rows, blocks
        )
        yield layer


# -- group enumeration --------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """Group element as the images of the basis vectors."""

    lattice: PicardLattice
    images: tuple[Divisor, ...]  # images[i] = w(e_i)

    def apply(self, d: Divisor) -> Divisor:
        out = [0] * self.lattice.rank
        for coeff, image in zip(d, self.images, strict=True):
            if coeff:
                for j, x in enumerate(image):
                    out[j] += coeff * x
        return tuple(out)


def preserves_form_and_k(lattice: PicardLattice, images: np.ndarray) -> np.ndarray:
    """Which of the stacked maps [..., rank, rank] (row i = image of e_i,
    so M = images.T) preserve the form and fix K: M^T G M == G, M K == K."""
    gram = np.array(lattice.gram, dtype=np.int64)
    k = np.array(lattice.canonical, dtype=np.int64)
    form = images @ gram @ np.swapaxes(images, -1, -2)
    return (form == gram).all(axis=(-2, -1)) & (k @ images == k).all(axis=-1)


def identity_element(lattice: PicardLattice) -> WeylElement:
    eye = tuple(
        tuple(int(i == j) for j in range(lattice.rank)) for i in range(lattice.rank)
    )
    return WeylElement(lattice, eye)


def _lattice_for_degree(degree: int) -> PicardLattice:
    if not 1 <= degree <= 7:
        raise InputError(f"Weyl enumeration supports degrees 1..7, got {degree}")
    return PicardLattice.standard(degree)


@lru_cache(maxsize=None)
def group_order(degree: int) -> int:
    """|W| by walking its elements (`orbit_layers`)."""
    lattice = _lattice_for_degree(degree)
    if not simple_reflection_roots(lattice):
        return 1
    total = 0
    for layer in orbit_layers(lattice):
        total = layer.total_so_far
    return total


# -- stabilizers of root sets -------------------------------------------
#
# In degrees <= 6 the isometries of Pic fixing K are exactly W (Manin,
# Cubic Forms, Thm 23.9) and the roots span K^perp.  So for a basis made
# of roots b_0..b_{rank-2} and K, an element w is determined by the
# images w(b_j), each a root with the products of the b_j.  The search
# assigns roots to the basis positions breadth-first and keeps the partial
# assignments whose products match (Plesken & Souvignier, "Computing
# isometries of lattices", J. Symb. Comput. 24 (1997), with the roots as
# the short vectors).  The basis starts with independent roots of R,
# whose images must lie in R, so the work is of the order of |Stab|, not
# |W|.  Each full assignment determines a rational isometry, which is kept
# when it is integral and permutes R.

#: Most group elements, or partial basis assignments, one stabilizer
#: computation may hold.
STABILIZER_LIMIT = 100_000


@lru_cache(maxsize=None)
def _root_table(lattice: PicardLattice):
    """(roots [N, rank], root-by-root products [N, N] int8, root -> index)."""
    classes = lattice.enumerate_classes(-2)
    roots = np.array(classes, dtype=np.int64)
    gram = np.array(lattice.gram, dtype=np.int64)
    products = (roots @ gram @ roots.T).astype(np.int8)  # entries in -2..2
    roots.flags.writeable = products.flags.writeable = False
    return roots, products, {r: i for i, r in enumerate(classes)}


def _root_basis(lattice: PicardLattice, roots) -> tuple[list[int], int] | None:
    """Indices of roots spanning K^perp, and how many of them lie in R.

    R's independent roots come first, then lattice roots in enumeration
    order, each meeting an earlier basis root where one does: its images
    are then confined to the roots with that nonzero product.  None when
    the lattice's roots do not span K^perp (degree 7).
    """
    all_roots, products, index = _root_table(lattice)
    basis: list[int] = []

    def extends(i: int) -> bool:
        return integer_rank(all_roots[basis + [i]]) > len(basis)

    for r in roots:
        if extends(index[r]):
            basis.append(index[r])
    in_r = len(basis)
    while len(basis) < lattice.rank - 1:
        meets = products[basis].any(axis=0)
        candidates = np.argsort(~meets, kind="stable").tolist()
        pick = next((i for i in candidates if extends(i)), None)
        if pick is None:
            return None
        basis.append(pick)
    return basis, in_r


def _stabilizer_search(
    lattice: PicardLattice, roots: tuple[Divisor, ...], basis_idx: list[int], in_r: int
) -> np.ndarray:
    """The integral isometries fixing K [P, rank, rank] (row i = image of
    e_i) that send the basis roots to assignments found by the search: a
    superset of the stabilizer of R, in search order."""
    all_roots, products, index = _root_table(lattice)
    root_idx = np.array([index[r] for r in roots], dtype=np.int64)
    anywhere = np.arange(len(all_roots))
    basis_products = products[np.ix_(basis_idx, basis_idx)]
    # [P, j] root indices of the images of b_0..b_{j-1}.
    assigned = np.zeros((1, 0), dtype=np.int64)
    for j in range(len(basis_idx)):
        candidates = root_idx if j < in_r else anywhere
        ok = np.ones((assigned.shape[0], candidates.size), dtype=bool)
        for i in range(j):
            ok &= products[assigned[:, i, None], candidates] == basis_products[i, j]
        count = np.count_nonzero(ok)
        if count > STABILIZER_LIMIT:
            raise ResourceError(
                f"stabilizer search of {len(roots)} roots on the degree-"
                f"{lattice.degree} lattice passed {STABILIZER_LIMIT} partial "
                f"assignments at basis position {j}"
            )
        rows, cols = np.nonzero(ok)
        assigned = np.column_stack([assigned[rows], candidates[cols]])

    k = np.array(lattice.canonical, dtype=np.int64)
    basis = np.concatenate([all_roots[basis_idx], k[None]])
    images = np.concatenate(
        [all_roots[assigned], np.broadcast_to(k, (assigned.shape[0], 1, k.size))], axis=1
    )
    # M @ b_i = s_i for basis rows b_i and image rows s_i means
    # basis @ M.T = images, so det * M.T = adj @ images: the unique rational
    # solution, integral iff det divides every entry.
    adj, det = integer_adjugate(basis)
    scaled = np.array(adj, dtype=np.int64) @ images
    integral = (scaled % det == 0).all(axis=(1, 2))
    mt, images = scaled[integral] // det, images[integral]
    keep = (basis @ mt == images).all(axis=(1, 2)) & preserves_form_and_k(lattice, mt)
    return mt[keep]


def _whole_group(lattice: PicardLattice) -> np.ndarray:
    """Every element of W [|W|, rank, rank] int64, in walk order, each
    checked to preserve the form and fix K."""
    group = np.concatenate([layer.elements for layer in orbit_layers(lattice)])
    group = group.astype(np.int64)
    if not preserves_form_and_k(lattice, group).all():
        raise InternalError(
            "the orbit walk yielded a map that does not preserve the form or fix K"
        )
    return group


def stabilizer_elements_of_root_set(
    degree: int, roots: tuple[Divisor, ...]
) -> tuple[WeylElement, ...]:
    """All w in W permuting the given root set R, as explicit elements.

    For nonempty R in degrees 1-6 this is the root-basis search above, in
    which every integral isometry fixing K lies in W (Manin, Cubic Forms,
    Thm 23.9); it raises `ResourceError` when its partial assignments pass
    STABILIZER_LIMIT.  The empty set (whose stabilizer is W) and degree 7
    (|W| = 2; the roots do not span K^perp) filter the whole group, the
    walk's elements (`orbit_layers`), which must number at most
    STABILIZER_LIMIT.  Both kinds of candidates are then kept when they
    map R into R, in the order they come.
    """
    lattice = _lattice_for_degree(degree)
    roots = tuple(dict.fromkeys(tuple(int(x) for x in r) for r in roots))
    for r in roots:
        if not is_root(lattice, r):
            raise InputError(f"{r} is not a (-2)-class root")
    found = _root_basis(lattice, roots) if roots else None
    if found is not None:
        candidates = _stabilizer_search(lattice, roots, *found)
    elif math.prod(INVARIANT_DEGREES[degree]) > STABILIZER_LIMIT:
        raise ResourceError(
            f"the stabilizer of {len(roots)} roots in degree {degree} is "
            f"enumerated from all of W, which has more than {STABILIZER_LIMIT} "
            "elements"
        )
    else:
        candidates = _whole_group(lattice)
    # An isometry is injective, so mapping R into R permutes it.
    r_arr = np.array(roots, dtype=np.int64).reshape(-1, lattice.rank)
    r_images = r_arr @ candidates
    keep = (r_images[:, :, None, :] == r_arr).all(axis=-1).any(axis=-1).all(axis=-1)
    return tuple(
        WeylElement(lattice, tuple(map(tuple, m))) for m in candidates[keep].tolist()
    )
