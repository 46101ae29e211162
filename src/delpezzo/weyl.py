"""Weyl groups of Picard lattices: enumeration, orbits, stabilizers.

The group W is generated by reflections in the simple roots
E_i - E_{i+1} and L - E1 - E2 - E3.  Orbits are enumerated by reverse
search (Avis & Fukuda 1996) over the Coxeter-length tree of W (Bjorner &
Brenti, GTM 231).  A regular dominant marker rho pairs positively with
every simple root, so w -> w.rho is a bijection and the pairings of w.rho
with the simple roots give the left descents of w.  Each non-identity
element has exactly one parent, s_j w with j its smallest descent, so the
orbit is a tree walked layer by layer with no membership test: a payload
(a toric system, the identity matrix) carried in lockstep with the marker
reaches every point of its orbit exactly once.  The layer sizes are checked
against the Poincare polynomial of W.

All array arithmetic is int64 numpy.  Vectors are packed into uint64
keys by a linear map, key(x) = x @ weights + offset (mod 2^64), with one
bit field per coordinate (`pack_layout`); `pack_rows` asserts the field
range of every coordinate.  By linearity the key of a sum is the sum of
the terms' keys less the extra offsets, and keys of two vectors whose
coordinates differ by less than 2^bits in every field are equal only if
the vectors are, which is the bound the census checks before it compares
window keys with class keys.  Stabilizer candidates are solved exactly
with the integer adjugate of the root basis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InputError, InternalError, ResourceError
from .picard import Divisor, PicardLattice, integer_adjugate, integer_rank
from .toric import ToricSystem

#: Environment variable capping the memory (bytes) used by one orbit layer
#: and the next together.
MEMORY_BUDGET_ENV = "DELPEZZO_ORBIT_MEMORY_BYTES"


def _memory_budget() -> int | None:
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{MEMORY_BUDGET_ENV} must be an integer, got {raw!r}") from exc


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


def reflection_matrix(lattice: PicardLattice, root: Divisor) -> np.ndarray:
    """Matrix M with M @ v = v + (v.root) root, acting on coefficient vectors."""
    if lattice.classify_r(root) != -2 or lattice.k_product(root) != 0:
        raise InputError(f"{root} is not a (-2)-class root")
    r = lattice.rank
    gram = np.array(lattice.gram, dtype=np.int64)
    rt = np.array(root, dtype=np.int64)
    return np.eye(r, dtype=np.int64) + np.outer(rt, gram @ rt)


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


# -- uint64 packing -----------------------------------------------------
#
# Coordinate 0 gets an 8-bit field, the others 7 bits each; rank <= 9
# fits a uint64 exactly.  Field i holds x_i + 2^(bits_i - 1) at bit
# shift_i, and the biased fields never overlap, so the key is linear:
#     key(x) = x @ weights + offset  (mod 2^64),  weights_i = 2^shift_i.
# The key of a sum of vectors is thus the sum of their `x @ weights`
# terms plus one offset.  Keys are also injective under a bound: if
# |u_i - v_i| < 2^bits_i for every i, then key(u) == key(v) forces u == v
# (compare the fields from the lowest one up).  pack_rows asserts the
# range of every coordinate, so overflow is impossible rather than
# unlikely.

_PACK_LEAD_BITS = 8
_PACK_TAIL_BITS = 7


@lru_cache(maxsize=None)
def pack_layout(rank: int) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """(field bits [rank] int64, weights [rank] uint64, offset) of the packing."""
    bits = (_PACK_LEAD_BITS,) + (_PACK_TAIL_BITS,) * (rank - 1)
    if sum(bits) > 64:
        raise InternalError(f"rank {rank} does not fit the packing scheme")
    shifts = [sum(bits[i + 1 :]) for i in range(rank)]
    bits_arr = np.array(bits, dtype=np.int64)
    weights = np.array([1 << s for s in shifts], dtype=np.uint64)
    bits_arr.flags.writeable = weights.flags.writeable = False
    offset = np.uint64(sum(1 << (b - 1 + s) for b, s in zip(bits, shifts)))
    return bits_arr, weights, offset


def pack_rows(arr: np.ndarray) -> np.ndarray:
    """Pack integer vectors [..., rank] into uint64 keys, checking bounds."""
    bits, weights, offset = pack_layout(arr.shape[-1])
    half = 1 << (bits - 1)
    if (arr < -half).any() or (arr >= half).any():
        raise InternalError("coordinate out of the packing range [-2^(b-1), 2^(b-1))")
    # Negative coordinates wrap to uint64 and the sums are taken mod 2^64;
    # the in-place add on an array wraps silently where a scalar add warns.
    keys = arr.reshape(-1, arr.shape[-1]).astype(np.uint64) @ weights
    keys += offset
    return keys.reshape(arr.shape[:-1])


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


@dataclass
class OrbitLayer:
    """The images under the elements of Coxeter length `index`: markers
    and the payload carried in lockstep."""

    index: int
    markers: np.ndarray  # [N, rank] int64
    payload: np.ndarray | None  # [N, P, rank] int64
    total_so_far: int


def orbit_layers(
    lattice: PicardLattice,
    payload0: np.ndarray | None = None,
    *,
    memory_budget: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    max_layers: int | None = None,
):
    """Yield the W-orbit of (marker, payload) layer by layer.

    The payload (any stack of lattice vectors, e.g. the terms of a toric
    system or the rows of an identity matrix) is transformed by the same
    reflections as the marker.  Layer k holds the images under the
    elements of Coxeter length k, each exactly once, in a deterministic
    order.  Every layer's size is checked against the Poincare
    polynomial of W.

    With `checkpoint_dir`, the current layer is written after every layer
    and `resume=True` continues from it; the checkpoint must belong to the
    same lattice and initial payload.
    """
    if memory_budget is None:
        memory_budget = _memory_budget()
    roots = simple_reflection_roots(lattice)
    if not roots:
        raise InputError("trivial Weyl group: no simple roots on this lattice")
    gram = np.array(lattice.gram, dtype=np.int64)
    root_arr = np.array(roots, dtype=np.int64)
    pairing = gram @ root_arr.T  # markers @ pairing: products with simple roots
    cartan = root_arr @ pairing
    # Row vectors transform as v -> v @ gens_t[i].
    gens_t = np.stack([reflection_matrix(lattice, r).T for r in roots])
    sizes = poincare_coefficients(lattice.degree)
    marker0 = np.array(regular_marker(lattice), dtype=np.int64)
    if payload0 is not None:
        payload0 = np.asarray(payload0, dtype=np.int64)

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    if resume:
        if checkpoint_dir is None:
            raise InputError("resume requires a checkpoint directory")
        layer = _load_checkpoint(checkpoint_dir, marker0, payload0)
    else:
        layer = OrbitLayer(
            0, marker0[None, :], None if payload0 is None else payload0[None], 1
        )
        yield layer
        if checkpoint_dir is not None:
            _save_checkpoint(checkpoint_dir, marker0, payload0, layer)

    while True:
        index = layer.index + 1
        if max_layers is not None and index > max_layers:
            return
        expected = sizes[index] if index < len(sizes) else 0
        markers, payload = layer.markers, layer.payload
        n = markers.shape[0]
        if memory_budget is not None:
            # this layer and the next (markers + payload), plus the pairings
            per = markers.itemsize * markers.shape[1]
            if payload is not None:
                per += payload.itemsize * payload.shape[1] * payload.shape[2]
            needed = (n + expected) * per + n * len(roots) * 8
            if needed > memory_budget:
                raise ResourceError(
                    f"orbit layer {index} needs ~{needed} bytes, over the budget "
                    f"{memory_budget}; shard the traversal or raise "
                    f"{MEMORY_BUDGET_ENV}"
                )
        # m = w.rho has children s_i.m for the i that lengthen w (m.a_i > 0)
        # and are the smallest descent of s_i.w: for j < i, s_i.m pairs
        # positively with a_j.  So every element has exactly one parent.
        pair = markers @ pairing
        child_markers, child_payload = [], []
        for i in range(len(roots)):
            mask = pair[:, i] > 0
            for j in range(i):
                mask &= pair[:, j] + pair[:, i] * cartan[i, j] > 0
            child_markers.append(markers[mask] @ gens_t[i])
            if payload is not None:
                child_payload.append(payload[mask] @ gens_t[i])
        markers = np.concatenate(child_markers)
        count = markers.shape[0]
        if count != expected:
            raise InternalError(
                f"orbit layer {index} has {count} elements, but the Poincare "
                f"polynomial of W gives {expected} (internal invariant violated)"
            )
        if count == 0:
            return
        layer = OrbitLayer(
            index,
            markers,
            None if payload is None else np.concatenate(child_payload),
            layer.total_so_far + count,
        )
        yield layer
        if checkpoint_dir is not None:
            _save_checkpoint(checkpoint_dir, marker0, payload0, layer)


def _save_checkpoint(directory: Path, marker0, payload0, layer: OrbitLayer):
    tmp = directory / "state.npz.tmp"
    data = {
        "rank": np.int64(marker0.size),
        "marker0": marker0,
        "layer": np.int64(layer.index),
        "total": np.int64(layer.total_so_far),
        "markers": layer.markers,
    }
    if payload0 is not None:
        data["payload0"] = payload0
        data["payload"] = layer.payload
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **data)
    os.replace(tmp, directory / "state.npz")


def _load_checkpoint(directory: Path, marker0, payload0) -> OrbitLayer:
    """The checkpointed layer, if it belongs to the orbit of (marker0, payload0)."""
    path = directory / "state.npz"
    if not path.exists():
        raise InputError(f"no checkpoint found in {directory}")
    with np.load(path) as data:
        saved = {key: data[key] for key in data.files}
    rank = int(saved.get("rank", -1))
    if rank != marker0.size:
        raise InputError(
            f"checkpoint in {directory} is for rank {rank}, not {marker0.size}"
        )
    # array_equal also tells None (no payload) from an array.
    if not (
        np.array_equal(saved["marker0"], marker0)
        and np.array_equal(saved.get("payload0"), payload0)
    ):
        raise InputError(
            f"checkpoint in {directory} belongs to a different orbit "
            "(initial marker or payload differ)"
        )
    return OrbitLayer(
        int(saved["layer"]), saved["markers"], saved.get("payload"), int(saved["total"])
    )


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

    def matrix(self) -> np.ndarray:
        """M with M @ v = w(v) on coefficient vectors."""
        return np.array(self.images, dtype=np.int64).T

    def verify(self) -> None:
        lat = self.lattice
        for i in range(lat.rank):
            for j in range(i, lat.rank):
                if lat.intersect(self.images[i], self.images[j]) != lat.gram[i][j]:
                    raise InternalError("Weyl element does not preserve the form")
        if self.apply(lat.canonical) != lat.canonical:
            raise InternalError("Weyl element does not fix K")


def identity_element(lattice: PicardLattice) -> WeylElement:
    eye = tuple(
        tuple(int(i == j) for j in range(lattice.rank)) for i in range(lattice.rank)
    )
    return WeylElement(lattice, eye)


def enumerate_group(degree: int, *, verify_every: int = 10_000, verify_all: bool = False):
    """Stream every element of W exactly once (deterministic order).

    Carries the identity's rows through the orbit, so each payload is
    the stack of basis-vector images.  Gram/K preservation is asserted on
    a sample (or everywhere with verify_all).
    """
    lattice = _lattice_for_degree(degree)
    eye = np.eye(lattice.rank, dtype=np.int64)
    count = 0
    for layer in orbit_layers(lattice, eye):
        for row in layer.payload:
            el = WeylElement(lattice, tuple(tuple(int(x) for x in img) for img in row))
            count += 1
            if verify_all or count % verify_every == 0:
                el.verify()
            yield el


def _lattice_for_degree(degree: int) -> PicardLattice:
    if not 1 <= degree <= 7:
        raise InputError(f"Weyl enumeration supports degrees 1..7, got {degree}")
    return PicardLattice.standard(degree)


@lru_cache(maxsize=None)
def group_order(degree: int) -> int:
    """|W| by a marker-only orbit enumeration."""
    lattice = _lattice_for_degree(degree)
    if not simple_reflection_roots(lattice):
        return 1
    total = 0
    for layer in orbit_layers(lattice):
        total = layer.total_so_far
    return total


def orbit_of_toric_system(A0: ToricSystem):
    """Stream the |W| distinct images of A0, each exactly once."""
    lattice = A0.lattice
    payload0 = np.array(A0.terms, dtype=np.int64)
    for layer in orbit_layers(lattice, payload0):
        for row in layer.payload:
            yield ToricSystem(lattice, tuple(tuple(int(x) for x in t) for t in row))


def orbit_system_arrays(A0: ToricSystem, **kwargs):
    """Raw layer arrays [N, n, rank] of the orbit of A0 (census fast path)."""
    payload0 = np.array(A0.terms, dtype=np.int64)
    for layer in orbit_layers(A0.lattice, payload0, **kwargs):
        yield layer


# -- stabilizers of root sets -------------------------------------------


def spans_lattice_with_k(lattice: PicardLattice, roots) -> bool:
    """Whether the roots together with K span the lattice over Q."""
    return integer_rank(list(roots) + [lattice.canonical]) == lattice.rank


def stabilizer_elements_of_root_set(
    degree: int, roots: tuple[Divisor, ...]
) -> tuple[WeylElement, ...]:
    """All w in W permuting the given root set, as explicit elements.

    Two methods, both exact:

    * If the roots together with K span the lattice over Q and the degree
      is at most 2 (where every integral isometry fixing K lies in W),
      candidates are the product-preserving permutations of the root set;
      each determines a unique rational matrix, kept iff integral.
    * Otherwise the full group is enumerated and filtered (degrees >= 3,
      where |W| <= 51840).
    """
    lattice = _lattice_for_degree(degree)
    roots = tuple(roots)
    for r in roots:
        if lattice.classify_r(r) != -2 or lattice.k_product(r) != 0:
            raise InputError(f"{r} is not a (-2)-class root")
    if not roots:
        if group_order(degree) > 100_000:
            raise ResourceError(
                "empty root set: the stabilizer is all of W; enumerate it "
                "explicitly only for small degrees"
            )
        return tuple(enumerate_group(degree))
    full_rank = spans_lattice_with_k(lattice, roots)
    if degree <= 2 and full_rank:
        return _stabilizer_by_permutations(lattice, roots)
    if degree <= 2:
        return stabilizers_for_root_sets(degree, (roots,))[0]
    out = []
    target = frozenset(roots)
    for el in enumerate_group(degree):
        if frozenset(el.apply(r) for r in roots) == target:
            out.append(el)
    return tuple(out)


def stabilizers_for_root_sets(
    degree: int, root_sets
) -> tuple[tuple[WeylElement, ...], ...]:
    """Setwise stabilizers of several root sets in one full-group pass.

    The whole group is streamed once as basis-image stacks; for every
    root set, elements whose image of the set (as a sorted key tuple)
    matches the original are collected.  Quadratic-free: one matrix
    product per (layer, root set).
    """
    lattice = _lattice_for_degree(degree)
    root_sets = tuple(tuple(rs) for rs in root_sets)
    root_arrays = [np.array(rs, dtype=np.int64) for rs in root_sets]
    targets = [np.sort(pack_rows(arr)) for arr in root_arrays]
    found: list[list[WeylElement]] = [[] for _ in root_sets]
    eye = np.eye(lattice.rank, dtype=np.int64)
    for layer in orbit_layers(lattice, eye):
        payload = layer.payload  # [N, rank, rank]; rows are images of e_i
        for which, (arr, target) in enumerate(zip(root_arrays, targets)):
            if arr.size == 0:
                continue
            # w(v) = v @ images for a row vector v.
            images = arr[None, :, :] @ payload  # [N, k, rank]
            keys = np.sort(pack_rows(images), axis=1)
            mask = np.all(keys == target[None, :], axis=1)
            for idx in np.nonzero(mask)[0]:
                el = WeylElement(
                    lattice,
                    tuple(tuple(int(x) for x in img) for img in payload[idx]),
                )
                el.verify()
                found[which].append(el)
    return tuple(tuple(f) for f in found)


def _stabilizer_by_permutations(
    lattice: PicardLattice, roots: tuple[Divisor, ...]
) -> tuple[WeylElement, ...]:
    k = len(roots)
    prod = [
        [lattice.intersect(roots[i], roots[j]) for j in range(k)] for i in range(k)
    ]
    basis = np.array(list(roots) + [lattice.canonical], dtype=np.int64)  # rows
    # For images B (rows), the matrix M with M @ basis_row_i = image_row_i
    # acting on coefficient columns satisfies  basis @ M.T = images, so
    # det(basis) M.T = adj(basis) @ images.
    adj, det = integer_adjugate(basis)
    adj = np.array(adj, dtype=np.int64)
    out: list[WeylElement] = []
    perm: list[int] = []
    used = [False] * k

    def extend():
        if len(perm) == k:
            el = _solve_isometry(lattice, basis, adj, det, perm, roots)
            if el is not None:
                out.append(el)
            return
        i = len(perm)
        for j in range(k):
            if used[j]:
                continue
            if all(prod[perm[a]][j] == prod[a][i] for a in range(i)):
                used[j] = True
                perm.append(j)
                extend()
                perm.pop()
                used[j] = False

    extend()
    return tuple(out)


def _solve_isometry(lattice, basis, adj, det, perm, roots):
    images = np.array([roots[j] for j in perm] + [lattice.canonical], dtype=np.int64)
    # Want M with M @ r_i = s_i for basis rows r_i, image rows s_i; the
    # unique rational solution is integral iff det divides adj @ images.
    scaled = adj @ images
    if np.any(scaled % det):
        return None
    m = (scaled // det).T
    # Exact verification: correct images and Gram preservation.
    if not np.array_equal(m @ basis.T, images.T):
        return None
    gram = np.array(lattice.gram, dtype=np.int64)
    if not np.array_equal(m.T @ gram @ m, gram):
        return None
    el = WeylElement(
        lattice,
        tuple(tuple(int(x) for x in m[:, i]) for i in range(lattice.rank)),
    )
    el.verify()
    return el


def stabilizer_order_of_root_set(degree: int, roots) -> int:
    roots = tuple(roots)
    if not roots:
        return group_order(degree)
    order = len(stabilizer_elements_of_root_set(degree, roots))
    if group_order(degree) % order != 0:
        raise InternalError("stabilizer order does not divide the group order")
    return order
