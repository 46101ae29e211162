"""The benchmark's workloads: set-up, the timed operation and its checks.

Each workload runs in a fresh worker process, because the library's
``lru_cache``s, its peak RSS and the lazily computed ``group_order`` are
per process.  ``setup(seed)`` builds the inputs, ``op(state)`` is the timed
user operation, and ``check(state, result)`` returns
``(errors, digest, counts)``:

* ``errors``: failed output checks (empty when correct);
* ``digest``: the reproduced numbers, which must not depend on the seed;
* ``counts``: exact work counts taken from the results, reported as
  per-layer metrics in traced runs.

The degree-2 operations the paper's tables come from (``stabilizer_table(2)``
at 60-75 s, the full type-IIb census at about 180 s plus set-up) do not fit
one benchmark run, so each workload runs the same code paths on a smaller
input: the full W(E6) orbit in degree 3, and a Coxeter-length prefix of the
W(E7) orbit in degree 2.  The stabilizer computations are part of the
set-ups: the full W(E6) scan of ``stabilizer_table(3)`` in ``census_deg3``,
and the permutation method for the degree-2 root sets in ``iib_deg2``.
"""

from __future__ import annotations

import random
from collections import Counter

# Library functions are looked up through their modules at call time, so
# that the tracer's wrappers see these calls.
from delpezzo import census, effectivity, picard, surface, toric, weyl
from delpezzo.picard import vneg

#: Degrees of the basic invariants of W, by del Pezzo degree (D5, E6, E7).
WEYL_DEGREES = {
    4: (2, 4, 5, 6, 8),
    3: (2, 5, 6, 8, 9, 12),
    2: (2, 6, 8, 10, 12, 14, 18),
}


def poincare_coefficients(degree: int) -> list[int]:
    """Coefficients of prod (1 + q + ... + q^(d-1)): elements of W per length."""
    coeffs = [1]
    for d in WEYL_DEGREES[degree]:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


def seeded_word(lattice, rng: random.Random):
    """A random word in the simple reflections, twice the number of positive roots long."""
    roots = weyl.simple_reflection_roots(lattice)
    positive_roots = len(lattice.enumerate_classes(-2)) // 2
    return [rng.choice(roots) for _ in range(2 * positive_roots)]


def act(lattice, word, d):
    for root in word:
        d = picard.reflect(lattice, d, root)
    return d


def conjugate_system(A, word):
    lat = A.lattice
    return toric.ToricSystem(lat, tuple(act(lat, word, t) for t in A.terms))


# -- stabilizers -------------------------------------------------------


#: |Stab| of each surface type's simple-root set, by degree.  Degrees 3 and
#: 4 come from full scans of W(E6) and W(D5); these degree-2 root sets span
#: the lattice together with K, so they use the permutation method.
STABILIZER_ORDERS = {
    2: {"7A1": 168, "A1+2A3": 4, "D4+3A1": 6, "D6+A1": 1},
    3: {
        "A1": 720, "2A1": 48, "A2": 72, "3A1": 12, "A1+A2": 6, "A3": 8,
        "4A1": 24, "2A1+A2": 2, "A1+A3": 2, "2A2": 12, "A4": 2, "D4": 6,
        "2A1+A3": 2, "A1+2A2": 2, "A1+A4": 1, "A5": 2, "D5": 1, "3A2": 6,
        "A1+A5": 1, "E6": 1,
    },
    4: {
        "A1": 48, "2A1,9": 8, "2A1,8": 48, "A2": 8, "3A1": 4, "A1+A2": 2,
        "A3,5": 2, "A3,4": 8, "4A1": 8, "2A1+A2": 2, "A1+A3": 2, "A4": 1,
        "2A1+A3": 2, "D4": 2, "D5": 1,
    },
}


def _label(s) -> str:
    # "X_{3,A1+A2}" -> "A1+A2"; "X_{3}" -> "dP".
    return s.name.split(",", 1)[1].rstrip("}") if "," in s.name else "dP"


def _with_roots(catalog):
    return [s for s in catalog.entries if not s.is_del_pezzo]


def _check_stabilizers(degree: int, found) -> tuple[list[str], dict]:
    """Check (surface, elements) pairs: order, |Stab| divides |W|, each
    element permutes the root set, the identity is among them."""
    errors: list[str] = []
    orders = {}
    group_order = census.EXPECTED_WEYL_ORDERS[degree]
    for s, elements in found:
        label = _label(s)
        orders[f"{degree}:{label}"] = len(elements)
        expected = STABILIZER_ORDERS[degree][label]
        if len(elements) != expected:
            errors.append(f"{s.name}: |Stab| = {len(elements)}, expected {expected}")
        if group_order % len(elements):
            errors.append(f"{s.name}: |Stab| = {len(elements)} does not divide |W|")
        target = frozenset(s.simple_roots)
        if any(frozenset(el.apply(r) for r in s.simple_roots) != target for el in elements):
            errors.append(f"{s.name}: an element does not permute the root set")
        identity = weyl.identity_element(s.lattice).images
        if not any(el.images == identity for el in elements):
            errors.append(f"{s.name}: the identity is missing")
    return errors, orders


def selftest_setup(seed: int):
    return {"deg4": _with_roots(surface.catalog_load(4))}


def selftest_op(state):
    table = census.stabilizer_table(4)
    return [(s, table[s.name]) for s in state["deg4"]]


def selftest_check(state, found):
    errors, orders = _check_stabilizers(4, found)
    return errors, orders, _census_counts([], 0, sum(orders.values()))


# -- degree-3 censuses of types VI, V and IV ---------------------------


#: Degree-3 second-kind systems: (degree-2 preset, blown-down term, squares).
CENSUS_DEG3_SOURCES = (
    ("VI-deg2", 9, (-2, -2, -1, -2, 0, -2, -2, -1, -3)),
    ("VI-deg2", 3, (-2, -1, -1, 0, -2, -2, -2, -1, -4)),
    ("V-deg2", 3, (-2, 0, 1, -2, -2, -2, -2, -1, -5)),
)
#: Deep (square <= -3) anti-class tests per census; every candidate fails one.
CENSUS_DEG3_DEEP_TESTS = (0, 13324, 9434)


def census_deg3_setup(seed: int):
    catalog = surface.catalog_load(3)
    stabilizers = census.stabilizer_table(3)
    dp2 = surface.catalog_load(2).get("dP")
    rng = random.Random(seed)
    systems = []
    for preset, term, _ in CENSUS_DEG3_SOURCES:
        _, A0 = toric.blow_down(dp2, census.SEQUENCE_PRESETS[preset].initial_system(), term)
        systems.append(conjugate_system(A0, seeded_word(A0.lattice, rng)))
    return {"catalog": catalog, "stabilizers": stabilizers, "systems": systems}


def census_deg3_op(state):
    return [census.census_for_preset(A0) for A0 in state["systems"]]


def _census_counts(runs, surfaces: int, stabilizer_elements: int) -> dict:
    counterexamples = sum(sum(run.raw_counts.values()) for run in runs)
    tested = sum(run.orbit_total * surfaces * len(census.MODES) for run in runs)
    return {
        "weyl.stabilizer_elements": stabilizer_elements,
        "census.deep_tests": sum(run.stats["deep_tests"] for run in runs),
        "census.counterexamples": counterexamples,
        "census.representatives": sum(
            record.essentially_different_count
            for run in runs
            for record in run.records.values()
        ),
        "census.yield": counterexamples / tested if tested else 0.0,
    }


def census_deg3_check(state, runs):
    table = state["stabilizers"]
    errors, orders = _check_stabilizers(
        3, [(s, table[s.name]) for s in _with_roots(state["catalog"])]
    )
    order = census.EXPECTED_WEYL_ORDERS[3]
    stabilizers = {
        s.name: order if s.is_del_pezzo else STABILIZER_ORDERS[3][_label(s)]
        for s in state["catalog"].entries
    }
    digest = []
    for (preset, term, squares), deep, run in zip(
        CENSUS_DEG3_SOURCES, CENSUS_DEG3_DEEP_TESTS, runs
    ):
        name = f"{preset}/{term}"
        if run.squares != squares:
            errors.append(f"{name}: squares {run.squares}, expected {squares}")
        if run.orbit_total != order or not run.complete:
            errors.append(f"{name}: orbit of {run.orbit_total} systems, expected {order}")
        if run.stats["deep_tests"] != deep:
            errors.append(f"{name}: {run.stats['deep_tests']} deep tests, expected {deep}")
        if any(run.raw_counts.values()):
            errors.append(f"{name}: counterexamples found in degree 3")
        if len(run.records) != len(stabilizers) * len(census.MODES):
            errors.append(f"{name}: {len(run.records)} records")
        for (sname, mode), record in sorted(run.records.items()):
            if record.total_count or record.stabilizer_order != stabilizers[sname]:
                errors.append(f"{name}: wrong record for {sname}/{mode}")
            digest.append(
                [name, sname, mode, record.total_count, record.stabilizer_order,
                 record.essentially_different_count]
            )
    digest.append(sorted(orders.items()))
    elements = sum(orders.values())
    return errors, digest, _census_counts(runs, len(state["catalog"].entries), elements)


# -- the degree-2 type-IIb census: orbit prefix and re-verification ----


#: The sweep covers the elements of Coxeter length <= PREFIX_LAYERS.
PREFIX_LAYERS = 16
#: Raw counterexample counts of the prefix sweep, by (type, mode).
IIB_PREFIX_COUNTS = {
    ("7A1", "strong"): 138, ("7A1", "exceptional"): 252,
    ("6A1", "strong"): 14, ("6A1", "exceptional"): 16,
    ("A3+3A1", "strong"): 17, ("A3+3A1", "exceptional"): 17,
    ("A1+2A3", "strong"): 21, ("A1+2A3", "exceptional"): 21,
    ("D4+3A1", "exceptional"): 44,
}
IIB_PREFIX_DEEP_TESTS = 1080
#: W-conjugates of the Section 13 counterexample re-verified per run.
REVERIFY_SYSTEMS = 16


def iib_deg2_setup(seed: int):
    catalog = surface.catalog_load(2)
    # The permutation-method part of stabilizer_table(2).
    stabilizers = []
    for label in STABILIZER_ORDERS[2]:
        s = catalog.get(label)
        stabilizers.append((s, weyl.stabilizer_elements_of_root_set(2, s.simple_roots)))
    s, A = census.section13_surface(), census.section13_system()
    lat = A.lattice
    rng = random.Random(seed)
    conjugates = []
    for i in range(REVERIFY_SYSTEMS):
        word = seeded_word(lat, rng)
        roots = tuple(act(lat, word, r) for r in s.simple_roots)
        conjugates.append(
            (surface.SurfaceModel(lat, roots, f"{s.name}^w{i}"), conjugate_system(A, word))
        )
    return {"catalog": catalog, "stabilizers": stabilizers, "conjugates": conjugates}


def reverify(s, A) -> tuple[bool, ...]:
    """The finalize re-verification of one counterexample, in both modes."""
    n = A.n
    return (
        toric.is_strong_exceptional(s, A, method="reference").ok,
        toric.is_exceptional(s, A, method="reference").ok,
        toric.compute_IXA(A) <= s.red_lines_set(),
        effectivity.is_hole(s, vneg(A.window(n, n)))
        or effectivity.is_hole(s, vneg(A.window(n - 1, n))),
    )


def iib_deg2_op(state):
    run = census.census_for_preset("IIb-deg2", max_layers=PREFIX_LAYERS, finalize=False)
    return run, [reverify(s, A) for s, A in state["conjugates"]]


def iib_deg2_check(state, result):
    run, verdicts = result
    errors, orders = _check_stabilizers(2, state["stabilizers"])
    rows = sum(poincare_coefficients(2)[: PREFIX_LAYERS + 1])
    if run.orbit_total != rows or run.complete:
        errors.append(f"prefix sweep covered {run.orbit_total} systems, expected {rows}")
    if run.stats["deep_tests"] != IIB_PREFIX_DEEP_TESTS:
        errors.append(f"{run.stats['deep_tests']} deep tests, expected {IIB_PREFIX_DEEP_TESTS}")
    by_name = {s.name: _label(s) for s in state["catalog"].entries}
    counts = {
        (by_name[sname], mode): c for (sname, mode), c in run.raw_counts.items() if c
    }
    if counts != IIB_PREFIX_COUNTS:
        errors.append(f"prefix counterexample counts {counts}")
    failed = Counter(i for v in verdicts for i, ok in enumerate(v) if not ok)
    if failed:
        errors.append(f"re-verification failures by check: {dict(failed)}")
    digest = {
        "counts": sorted([*key, c] for key, c in counts.items()),
        "deep_tests": run.stats["deep_tests"],
        "verified": sum(all(v) for v in verdicts),
        "stabilizer_orders": orders,
    }
    elements = sum(orders.values())
    return errors, digest, _census_counts([run], len(state["catalog"].entries), elements)


WORKLOADS = {
    "census_deg3": (census_deg3_setup, census_deg3_op, census_deg3_check),
    "iib_deg2": (iib_deg2_setup, iib_deg2_op, iib_deg2_check),
    # A full W(D5) scan in well under a second, for selftest.py.
    "selftest": (selftest_setup, selftest_op, selftest_check),
}


# -- exact work counts of traced runs ----------------------------------


#: Layers of every orbit a traced worker streams (set-up and operation).
ORBIT_LAYERS = {
    "census_deg3": len(poincare_coefficients(3)),
    "iib_deg2": PREFIX_LAYERS + 1,
    "selftest": len(poincare_coefficients(4)),
}


def check_orbits(name: str, orbits) -> list[str]:
    """Every streamed orbit's layer sizes must be the coefficients of the
    Poincare polynomial of W: all of them, or the prefix the census asked for."""
    errors = []
    for degree, sizes in orbits:
        expected = poincare_coefficients(degree)[: ORBIT_LAYERS[name]]
        if sizes != expected:
            errors.append(f"degree-{degree} orbit layer sizes {sizes}, expected {expected}")
    return errors
