"""The paper's printed claims and the `reproduce` suites that check them.

Every table, count and proposition of the paper that the library can
recompute is stated here as data, next to the suite that recomputes it:
the class inventories (Table 1), the cyclic strong admissible sequences
(Table 3) and their I(X,A) counts (Table 5), the printed irreducible
(-1)-curves of the catalog, the good-class tables and propositions, the
explicit degree-2 counterexample (Section 13), the degree-2 censuses
(Tables 7 and 8, and the type III-VI sequences), the classification of
cyclic strong exceptional systems (Tables 9 and 10) and the Weyl group
orders.  Each suite returns a `Report`.

Every whole-orbit count comes from the census engine (`census`), which
does not import this module: Tables 7 and 8 from its counterexample
modes, Tables 9 and 10 from its `cyclic-strong` mode over the orbit of
every first-kind sequence of Table 3.
"""

from __future__ import annotations

from functools import lru_cache

from .census import (
    EXPECTED_WEYL_ORDERS,
    IIB_DEG2_SQUARES,
    SEQUENCE_PRESETS,
    CensusRun,
    census_for_preset,
    section13_surface,
    section13_system,
)
from .effectivity import is_effective, is_hole, is_slo
from .errors import InputError
from .picard import (
    Divisor,
    PicardLattice,
    format_divisor,
    parse_divisor,
    parse_divisor_list,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .report import Report
from .surface import SurfaceModel, catalog_load, expected_good_zero_classes
from .toric import (
    TABLE_CYCLIC_STRONG,
    ToricSystem,
    canonical_cyclic,
    classify_sequence,
    compute_IXA,
    compute_IXA_windows,
    cyclic_windows,
    enumerate_cyclic_strong_admissible,
    is_admissible,
    is_cyclic_strong_exceptional,
    is_strong_exceptional,
    window_squares,
)
from . import weyl


# -- Tables 7 and 8 -----------------------------------------------------

#: Degree-2 presets of types III-VI (expected to yield no counterexample).
A11_PRESET_NAMES = (
    "VI-deg2",
    "V-deg2",
    "IV-deg2",
    "IIIc-1-deg2",
    "IIIc-2-deg2",
    "IIIc-3-deg2",
    "IIIa-deg2",
)

#: Strong-mode counterexample counts: type -> (essential, stabilizer, total).
TABLE7_EXPECTED = {
    "7A1": (48, 168, 8064),
    "6A1": (90, 48, 4320),
    "5A1": (36, 32, 1152),
    "A3+3A1": (144, 4, 576),
    "A1+2A3": (72, 4, 288),
}

#: Exceptional-mode counts: type -> (essential, stabilizer, total).
TABLE8_EXPECTED = {
    "7A1": (90, 168, 15120),
    "6A1": (126, 48, 6048),
    "5A1": (36, 32, 1152),
    "A3+3A1": (144, 4, 576),
    "A1+2A3": (72, 4, 288),
    "D4+2A1": (9, 4, 36),
    "D4+3A1": (177, 6, 1062),
}


def _census_table_report(
    run: CensusRun, mode: str, expected: dict, title: str
) -> Report:
    report = Report(title)
    for s in catalog_load(2).entries:
        record = run.records[(s.name, mode)]
        label = _type_label(s.name)
        if label in expected:
            essential, stabilizer, total = expected[label]
            report.check(
                f"{s.name} essential", essential, record.essentially_different_count
            )
            report.check(f"{s.name} stabilizer", stabilizer, record.stabilizer_order)
            report.check(f"{s.name} total", total, record.total_count)
        elif label == "D6+A1":
            report.note(
                f"{s.name} (open finding)",
                f"essential {record.essentially_different_count}, "
                f"stabilizer {record.stabilizer_order}, "
                f"total {record.total_count}",
            )
        else:
            report.check(f"{s.name} total", 0, record.total_count)
    return report


def _type_label(surface_name: str) -> str:
    # "X_{2,A1+2A3}" -> "A1+2A3"; "X_{2}" -> "dP".
    if "," not in surface_name:
        return "dP"
    return surface_name.split(",", 1)[1].rstrip("}")


#: `census_for_preset`, cached: suites that read one census share its run.
_census = lru_cache(maxsize=None)(census_for_preset)


def verify_table7() -> Report:
    return _census_table_report(
        _census("IIb-deg2"),
        "strong",
        TABLE7_EXPECTED,
        "strong-mode type-IIb census (degree 2)",
    )


def verify_table8() -> Report:
    return _census_table_report(
        _census("IIb-deg2"),
        "exceptional",
        TABLE8_EXPECTED,
        "exceptional-mode type-IIb census (degree 2)",
    )


def verify_degree2_type3to6() -> Report:
    """Censuses for the seven degree-2 type III-VI sequences: no output."""
    report = Report("degree-2 type III-VI censuses")
    for name in A11_PRESET_NAMES:
        preset = SEQUENCE_PRESETS[name]
        kind = classify_sequence(preset.squares)
        report.check(f"{name} kind", "second", kind.kind)
        run = _census(name)
        strong_total, exc_total = (
            sum(c for (_s, m), c in run.raw_counts.items() if m == mode)
            for mode in ("strong", "exceptional")
        )
        report.check(f"{name} strong counterexamples", 0, strong_total)
        report.note(f"{name} exceptional counterexamples", exc_total)
    return report


# -- the explicit degree-2 counterexample -------------------------------

SECTION13_IRR_LINES_TEXT = "E3,E7,L14,L45"
SECTION13_IXA_TEXT = (
    "L25,Q46,Q36,C2,L15,Q47,Q37,C1,L57,Q14,Q13,C7,E6,L23,L24,Q56,"
    "C5,Q67,Q16,Q34,L12,L27"
)
SECTION13_ROOT_WINDOWS = {
    (2, 2): "L137",
    (3, 3): "E3-E4",
    (4, 4): "L236",
    (2, 3): "L147",
    (3, 4): "L246",
    (2, 4): "2L-E123467",
    (6, 6): "E1-E7",
    (7, 7): "-L567",
    (6, 7): "-L156",
    (9, 9): "-L345",
}
#: (divisor, curves subtracted in order, expected residual) chains showing
#: the two (-3)-anti-classes are not effective.
SECTION13_CHAINS = (
    ("2L-E12257", ("2L-E124567", "E6-E7", "E7"), "E4-E2"),
    (
        "3L-E12234557",
        ("E1-E2", "E4-E5", "L123", "2L-E124567", "E6-E7", "E7"),
        "E2-E4",
    ),
)


def verify_section13() -> Report:
    """Re-verify the explicit degree-2 counterexample end to end."""
    report = Report("explicit degree-2 counterexample")
    s = section13_surface()
    lat = s.lattice
    A = section13_system()
    report.check("A^2", IIB_DEG2_SQUARES, A.squares())
    report.check(
        "I^irr",
        set(parse_divisor_list(lat, SECTION13_IRR_LINES_TEXT)),
        set(s.irr_lines_set()),
    )
    ixa = compute_IXA(A)
    printed = parse_divisor_list(lat, SECTION13_IXA_TEXT)
    report.check("|I(X,A)| (printed display)", 22, len(printed))
    report.check("I(X,A) = printed display", set(printed), ixa)
    report.check_true("I(X,A) inside I^red", ixa <= s.red_lines_set())
    for (k, l), text in sorted(SECTION13_ROOT_WINDOWS.items()):
        d = parse_divisor(lat, text)
        report.check(f"window [{k}..{l}] value", d, A.window(k, l))
        report.check_true(
            f"window [{k}..{l}] neither effective nor anti-effective",
            not is_effective(s, d) and not is_effective(s, vneg(d)),
        )
    report.check("-A_10", parse_divisor(lat, "2L-E12257"), vneg(A.window(10, 10)))
    report.check(
        "-A_{9,10}", parse_divisor(lat, "3L-E12234557"), vneg(A.window(9, 10))
    )
    for text, curves, residual_text in SECTION13_CHAINS:
        d = parse_divisor(lat, text)
        ok = True
        for curve_text in curves:
            c = parse_divisor(lat, curve_text)
            if lat.intersect(d, c) >= 0:
                ok = False
                break
            d = vsub(d, c)
        report.check_true(f"{text}: subtraction chain strictly descends", ok)
        report.check(
            f"{text}: chain residual",
            parse_divisor(lat, residual_text),
            d,
        )
        report.check_true(
            f"{text}: not effective",
            not is_effective(s, parse_divisor(lat, text)),
        )
    report.check_true("strong exceptional", is_strong_exceptional(s, A).ok)
    report.check_true(
        "not cyclic strong exceptional",
        not is_cyclic_strong_exceptional(s, A).ok,
    )
    holes = [
        is_hole(s, vneg(A.window(10, 10))),
        is_hole(s, vneg(A.window(9, 10))),
    ]
    report.check_true("at least one of -A_10, -A_{9,10} is a hole", any(holes))
    report.note("holes among (-A_10, -A_{9,10})", tuple(holes))
    return report


# -- the printed irreducible (-1)-curves of the catalog -----------------

# On degree-4 surfaces Q denotes 2L - E12345.
_EXPECTED_IRR = {
    (7, "dP"): "E1,E2,L12",
    (7, "A1"): "E2,L12",
    (6, "dP"): "E1,E2,E3,L12,L13,L23",
    (6, "A1,4"): "E2,E3,L12,L13",
    (6, "A1,3"): "E1,E2,E3",
    (6, "2A1"): "E2,E3",
    (6, "A2"): "E3,L12",
    (6, "A1+A2"): "E3",
    (5, "A1"): "E2,E3,E4,L12,L13,L14,L34",
    (5, "2A1"): "E2,E4,L12,L13,L34",
    (5, "A2"): "E3,E4,L12,L14",
    (5, "A1+A2"): "E3,E4,L14",
    (5, "A3"): "E4,L12",
    (5, "A4"): "E4",
    (4, "2A1,9"): "E1,E3,E5,L12,L14,L23,L45,L24,Q",
    (4, "2A1,8"): "E1,E2,E3,E5,L14,L24,L34,L45",
    (4, "A2"): "E1,E2,E5,L12,L13,L23,L34,Q",
    (4, "3A1"): "E1,E3,E5,L14,L24,L45",
    (4, "A1+A2"): "E2,E5,L12,L13,L34,Q",
    (4, "A3,5"): "E1,E5,L12,L23,Q",
    (4, "A3,4"): "E1,E2,E5,L34",
    (4, "4A1"): "E2,E3,E5,L14",
    (4, "2A1+A2"): "E3,E5,L14,L45",
    (4, "A1+A3"): "E2,E5,L34",
    (4, "A4"): "E5,L12,Q",
    (4, "2A1+A3"): "E2,E5",
    (4, "D4"): "E1,E5",
    (4, "D5"): "E5",
    (3, "A2"): "E3,E4,E5,E6,L12,L14,L15,L16,L45,L46,L56,Q3,Q4,Q5,Q6",
    (3, "3A1"): "E2,E4,E6,L12,L34,L56,L13,L15,L35,Q2,Q4,Q6",
    (3, "A1+A2"): "E3,E5,E6,L12,L14,L16,L45,L46,Q3,Q5,Q6",
    (3, "A3"): "E4,E5,E6,L12,L15,L16,L56,Q4,Q5,Q6",
    (3, "4A1"): "E2,E4,E6,L12,L34,L56,L13,L15,L35",
    (3, "2A1+A2"): "E3,E5,E6,L14,L16,L45,L46,Q3",
    (3, "A1+A3"): "E4,E6,L12,L15,L56,Q4,Q6",
    (3, "2A2"): "E3,E6,L12,L14,L45,Q3,Q6",
    (3, "A4"): "E5,E6,L12,L16,Q5,Q6",
    (3, "D4"): "E2,E4,E6,L12,L34,L56",
    (3, "2A1+A3"): "E4,E6,L12,L15,L56",
    (3, "A1+2A2"): "E3,E6,L14,L45,Q3",
    (3, "A1+A4"): "E5,E6,L12,L16",
    (3, "A5"): "E6,L12,Q6",
    (3, "D5"): "E5,E6,Q6",
    (3, "3A2"): "E3,E6,L14",
    (3, "A1+A5"): "E6,L12",
    (3, "E6"): "E6",
}


def expected_irr_lines(degree: int, label: str) -> tuple[Divisor, ...] | None:
    """The irreducible (-1)-classes printed in the source table, if any."""
    text = _EXPECTED_IRR.get((degree, label))
    if text is None:
        return None
    lat = PicardLattice.standard(degree)
    if degree == 4:
        text = text.replace("Q", "2L-E12345")
    return tuple(sorted(parse_divisor(lat, t) for t in text.split(",")))


def verify_irr_lines() -> Report:
    """The catalog's irreducible (-1)-curves against the printed table
    (degrees 7-3, the rows that list them)."""
    report = Report("irreducible (-1)-curves vs the printed table")
    for degree in (7, 6, 5, 4, 3):
        for s in catalog_load(degree).entries:
            expected = expected_irr_lines(degree, _type_label(s.name))
            if expected is not None:
                report.check(
                    f"{s.name} I^irr",
                    _format_classes(s.lattice, expected),
                    _format_classes(s.lattice, s.irr_lines_set()),
                )
    return report


def _format_classes(lattice: PicardLattice, classes) -> str:
    return ",".join(format_divisor(lattice, c) for c in sorted(classes))


# -- good classes -------------------------------------------------------


def is_good_set(s: SurfaceModel, divisors) -> bool:
    """Every irreducible (-1)-curve meets some member positively, and the
    members pairwise meet in exactly one point."""
    divisors = tuple(divisors)
    lat = s.lattice
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            if lat.intersect(divisors[i], divisors[j]) != 1:
                return False
    return all(
        any(lat.intersect(c, d) >= 1 for d in divisors)
        for c in s.irr_lines_set()
    )


def good_zero_classes(s: SurfaceModel) -> frozenset[Divisor]:
    return frozenset(
        d for d in s.lattice.enumerate_classes(0) if is_good_set(s, (d,))
    )


def good_one_classes(s: SurfaceModel) -> frozenset[Divisor]:
    return frozenset(
        d for d in s.lattice.enumerate_classes(1) if is_good_set(s, (d,))
    )


def good_zero_pairs(s: SurfaceModel) -> frozenset[tuple[Divisor, Divisor]]:
    """Unordered good pairs of 0-classes (jointly good, product 1)."""
    zeros = sorted(s.lattice.enumerate_classes(0))
    out = set()
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            if is_good_set(s, (zeros[i], zeros[j])):
                out.add((zeros[i], zeros[j]))
    return frozenset(out)


def verify_good_class_tables() -> Report:
    """Good 0-classes against the catalog tables (degrees 3-6)."""
    report = Report("good 0-classes vs catalog tables")
    for degree in (6, 5, 4, 3):
        for s in catalog_load(degree).entries:
            label = _type_label(s.name)
            expected = expected_good_zero_classes(degree, label)
            if expected is None:
                continue
            computed = good_zero_classes(s)
            if isinstance(expected, int):
                report.check(f"{s.name} good-S count", expected, len(computed))
            else:
                report.check(f"{s.name} good S", set(expected), set(computed))
    return report


#: Exceptions to "2S + K effective for good 0-classes S" in degree 3.
PROP_2SK_EXCEPTIONS = {
    ("A5", "L6"),
    ("A1+A5", "L6"),
    ("E6", "L6"),
    ("A5", "C6"),
}


def verify_good_class_propositions(degree: int) -> Report:
    """The effectiveness claims for good classes, pairs and triples."""
    if degree not in (3, 4, 5):
        raise InputError(f"good-class propositions cover degrees 3-5, not {degree}")
    report = Report(f"good-class propositions, degree {degree}")
    catalog = catalog_load(degree)
    k_class = PicardLattice.standard(degree).canonical

    for s in catalog.entries:
        lat = s.lattice
        # Good 1-classes H: 2H + K effective.
        ones = good_one_classes(s)
        report.check_true(
            f"{s.name}: 2H+K effective for all {len(ones)} good 1-classes",
            all(is_effective(s, vadd(vscale(2, h), k_class)) for h in ones),
        )
        # Good pairs (S1, S2): 2S1+S2+K or 2S2+S1+K effective.
        pairs = good_zero_pairs(s)
        report.check_true(
            f"{s.name}: 2S1+S2+K or 2S2+S1+K effective for all "
            f"{len(pairs)} good pairs",
            all(
                is_effective(s, vadd(vadd(vscale(2, s1), s2), k_class))
                or is_effective(s, vadd(vadd(vscale(2, s2), s1), k_class))
                for s1, s2 in pairs
            ),
        )
        if degree <= 4:
            report.check_true(
                f"{s.name}: K+2H-C' or K+2H-C'' effective for all good "
                "line triples",
                _check_line_triples(s, k_class),
            )
        if degree == 3:
            goods = sorted(good_zero_classes(s))
            # S, S' individually good with S.S' = 1: S+S'+K effective.
            report.check_true(
                f"{s.name}: S+S'+K effective for good 0-class pairs",
                all(
                    is_effective(s, vadd(vadd(s1, s2), k_class))
                    for i, s1 in enumerate(goods)
                    for s2 in goods[i + 1 :]
                    if lat.intersect(s1, s2) == 1
                ),
            )
            # Triangles in the good-pair graph: one of the three sums works.
            report.check_true(
                f"{s.name}: triangle claim for good pairs",
                _check_pair_triangles(s, pairs, k_class),
            )
    if degree == 3:
        exceptions = set()
        for s in catalog.entries:
            for d in sorted(good_zero_classes(s)):
                if not is_effective(s, vadd(vscale(2, d), k_class)):
                    exceptions.add(
                        (_type_label(s.name), format_divisor(s.lattice, d))
                    )
        printed = {
            (label, format_divisor(PicardLattice.standard(3),
                                   parse_divisor(PicardLattice.standard(3), t)))
            for label, t in PROP_2SK_EXCEPTIONS
        }
        report.check("exceptions to 2S+K effective", printed, exceptions)
    return report


def _check_line_triples(s: SurfaceModel, k_class: Divisor) -> bool:
    """C in I^red, C', C'' lines with CC'=CC''=1, C'C''=0, H=C+C'+C'' good
    => K+2H-C' or K+2H-C'' effective."""
    lat = s.lattice
    lines = sorted(lat.enumerate_classes(-1))
    index = {c: i for i, c in enumerate(lines)}
    m = [[lat.intersect(a, b) for b in lines] for a in lines]
    irr = [index[c] for c in sorted(s.irr_lines_set())]
    red = [index[c] for c in sorted(s.red_lines_set())]
    for ci in red:
        partners = [j for j in range(len(lines)) if m[ci][j] == 1]
        for a in range(len(partners)):
            for b in range(a + 1, len(partners)):
                j, k = partners[a], partners[b]
                if m[j][k] != 0:
                    continue
                h = vadd(vadd(lines[ci], lines[j]), lines[k])
                if any(
                    m[ci][t] + m[j][t] + m[k][t] < 1 for t in irr
                ):
                    continue
                base = vadd(k_class, vscale(2, h))
                if not (
                    is_effective(s, vsub(base, lines[j]))
                    or is_effective(s, vsub(base, lines[k]))
                ):
                    return False
    return True


def _check_pair_triangles(s: SurfaceModel, pairs, k_class: Divisor) -> bool:
    """All three pairs good => one of K+S+S', K+S+S'', K+S'+S'' effective."""
    pair_set = set(pairs)
    members = sorted({d for p in pairs for d in p})
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if (members[i], members[j]) not in pair_set:
                continue
            for k in range(j + 1, len(members)):
                if (
                    (members[i], members[k]) not in pair_set
                    or (members[j], members[k]) not in pair_set
                ):
                    continue
                sums = [
                    vadd(vadd(members[i], members[j]), k_class),
                    vadd(vadd(members[i], members[k]), k_class),
                    vadd(vadd(members[j], members[k]), k_class),
                ]
                if not any(is_effective(s, d) for d in sums):
                    return False
    return True


def verify_good_classes() -> Report:
    """The `good-classes` suite: the good 0-classes and the irreducible
    (-1)-curves of the catalog tables, then the propositions."""
    report = verify_good_class_tables()
    report.extend(verify_irr_lines())
    for degree in (5, 4, 3):
        report.extend(verify_good_class_propositions(degree))
    return report


# -- classification of cyclic strong exceptional systems ----------------

#: Uniform toric systems by degree (shorthand on the standard lattice).
TABLE9_SYSTEM_TEXTS = {
    9: "L,L,L",
    7: "L1,E1,L12,E2,L2",
    6: "L13,E1,L12,E2,L23,E3",
    5: "L134,E4,E1-E4,L12,E2,L23,E3",
    4: "L134,E4,E1-E4,L12,E2-E5,E5,L235,E3",
    3: "E2-E4,L125,E5,E1-E5,L136,E6,E3-E6,L234,E4",
}

#: Surface types carrying the uniform system, per degree.
TABLE9_TYPES = {
    7: ("dP", "A1"),
    6: ("dP", "A1,4", "A1,3", "2A1", "A2", "A1+A2"),
    5: ("dP", "A1", "2A1", "A2", "A1+A2"),
    4: (
        "dP",
        "A1",
        "2A1,9",
        "2A1,8",
        "A2",
        "3A1",
        "A1+A2",
        "A3,4",
        "4A1",
        "2A1+A2",
        "A1+A3",
        "2A1+A3",
    ),
    3: (
        "dP",
        "A1",
        "2A1",
        "A2",
        "3A1",
        "A1+A2",
        "4A1",
        "2A1+A2",
        "2A2",
        "A1+2A2",
        "3A2",
    ),
}

#: The cyclic (-2)-windows of the uniform systems, as printed.
TABLE9_ROOT_WINDOW_TEXTS = {
    5: "L134,E1-E4",
    4: "L134,E1-E4,E2-E5,L235",
    3: "E2-E4,L125,L145,E1-E5,L136,L356,E3-E6,L234,L246",
}

#: Surfaces with no cyclic strong exceptional system:
#: (degree, type, reduction type, blown-up point) with the degree-5 rows
#: proven directly and the rest reduced by blow-down to the row above.
TABLE10_ROWS = (
    (5, "A3", None, None),
    (5, "A4", None, None),
    (4, "A3,5", "A3", "general"),
    (4, "A4", "A4", "general"),
    (4, "D4", "A3", "general on L12"),
    (4, "D5", "A4", "general on E4"),
    (3, "A3", "A3,5", "general"),
    (3, "A1+A3", "A3,5", "general on E1"),
    (3, "A4", "A4", "general"),
    (3, "D4", "D4", "general"),
    (3, "2A1+A3", "A3,5", "E1 meet Q"),
    (3, "A1+A4", "A4", "general on Q"),
    (3, "A5", "A4", "general on E5"),
    (3, "D5", "D5", "general"),
    (3, "A1+A5", "A4", "E5 meet Q"),
    (3, "E6", "D5", "general on E5"),
)

#: Strong left-orthogonal roots used in the direct degree-5 argument.
DEGREE5_SLO_ROOTS = {
    "A3": "L123,L124,L134,L234",
    "A4": "",
}


def verify_cyclic_strong_classification() -> Report:
    """Positive and negative halves of the classification tables."""
    report = Report("cyclic strong exceptional classification")

    def windows_in_range(A: ToricSystem) -> bool:
        # All cyclic window r-values in [-1, d-3]: then A is cyclic strong
        # exceptional with no effectiveness input at all.
        return all(
            -1 <= sq <= A.lattice.degree - 3 for sq in window_squares(A.squares())
        )

    # The plane: (L, L, L) on the rank-1 lattice.
    lat9 = PicardLattice.standard(9)
    a9 = ToricSystem(lat9, parse_divisor_list(lat9, TABLE9_SYSTEM_TEXTS[9]))
    report.check_true("P2 system window r-values all in [-1, d-3]",
                      windows_in_range(a9))

    # Hirzebruch lattice: (F, G, F, G) works on F0 and on F2 alike, since
    # every cyclic window has square 0, 2 or 4, within [-1, d-3] = [-1, 5].
    hz = PicardLattice.hirzebruch()
    f = (1, 0)
    g = (0, 1)
    hz_sys = ToricSystem(hz, (f, g, f, g))
    report.check_true("F0/F2 system window r-values all in [-1, d-3]",
                      windows_in_range(hz_sys))
    # No second system on F2: a squares sequence (0,2,0,-2) forces the
    # fourth term to be one of the two (-2)-classes +-(F - G), and F2's
    # irreducible (-2)-curve G - F is effective, so no such system is
    # cyclic strong exceptional on F2.
    minus_two = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if hz.square((a, b)) == -2 and hz.k_product((a, b)) == 0
    ]
    report.check("(-2)-classes on the Hirzebruch lattice",
                 {(1, -1), (-1, 1)}, set(minus_two))

    # F1: (L - E1, E1, L - E1, L) on the standard degree-8 lattice.
    lat8 = PicardLattice.standard(8)
    f1_sys = ToricSystem(lat8, parse_divisor_list(lat8, "L1,E1,L1,L"))
    report.check_true("F1 system window r-values all in [-1, d-3]",
                      windows_in_range(f1_sys))

    # Degrees 7-3: the uniform system on every listed surface type, and
    # the cyclic strong systems of every Table 3 sequence of the degree
    # counted over its whole orbit on every surface.
    for degree in (7, 6, 5, 4, 3):
        lat = PicardLattice.standard(degree)
        A = ToricSystem(lat, parse_divisor_list(lat, TABLE9_SYSTEM_TEXTS[degree]))
        expected_windows = TABLE9_ROOT_WINDOW_TEXTS.get(degree)
        if expected_windows is not None:
            windows = zip(cyclic_windows(A.n), window_squares(A.squares()))
            computed = {A.window(k, l) for (k, l, _), sq in windows if sq == -2}
            report.check(
                f"degree {degree} cyclic (-2)-windows",
                set(parse_divisor_list(lat, expected_windows)),
                computed,
            )
        catalog = catalog_load(degree)
        for label in TABLE9_TYPES[degree]:
            s = catalog.get(label)
            report.check_true(
                f"{s.name}: uniform system cyclic strong exceptional",
                is_cyclic_strong_exceptional(s, A).ok,
            )
        # Listed and excluded types partition the catalog.
        excluded = {t for d, t, _x, _p in TABLE10_ROWS if d == degree}
        listed = set(TABLE9_TYPES[degree])
        catalog_labels = {_type_label(s.name) for s in catalog.entries}
        report.check(
            f"degree {degree}: listed + excluded = all types",
            catalog_labels,
            listed | excluded,
        )
        carrying = set()
        for name, run in _cyclic_strong_censuses(degree).items():
            seq = TABLE_CYCLIC_STRONG[name]
            report.check(
                f"orbit size of {seq}", EXPECTED_WEYL_ORDERS[degree], run.orbit_total
            )
            for s in catalog.entries:
                count = run.raw_counts[(s.name, "cyclic-strong")]
                report.note(f"{s.name}: cyclic strong systems with A^2 = {seq}", count)
                if count:
                    carrying.add(_type_label(s.name))
        report.check(
            f"degree {degree}: types with a cyclic strong system (Table 9)",
            listed,
            carrying,
        )
        report.check(
            f"degree {degree}: types without one (Table 10)",
            excluded,
            catalog_labels - carrying,
        )

    # Direct negative results in degree 5.
    report.extend(verify_degree5_negative())

    # Remaining rows reduce by blow-down; check the reduction references.
    table10_keys = {(d, t) for d, t, _x, _p in TABLE10_ROWS}
    for degree, label, target, point in TABLE10_ROWS:
        if target is None:
            report.note(f"X_{{{degree},{label}}}", "no system (proved directly)")
            continue
        ok = (degree + 1, target) in table10_keys
        report.check_true(
            f"X_{{{degree},{label}}} reduces to X_{{{degree + 1},{target}}} "
            f"(point: {point})",
            ok,
        )
    return report


def _cyclic_strong_censuses(degree: int) -> dict[str, CensusRun]:
    """The cyclic-strong census of every Table 3 sequence of length
    12 - degree on every catalog surface, by row name.  Shifts and
    symmetries of a cyclic strong system are again cyclic strong, so these
    orbits hold every cyclic strong system up to them, provided the systems
    with one squares sequence form a single W-orbit."""
    return {
        name: _census(seq, modes=("cyclic-strong",), finalize=False)
        for name, seq in sorted(TABLE_CYCLIC_STRONG.items())
        if len(seq) == 12 - degree
    }


def verify_degree5_negative() -> Report:
    """Exhaustive search: no cyclic strong exceptional system on the
    degree-5 surfaces of types A3 and A4.

    Both length-7 cyclic strong admissible sequences are realized and
    their full 120-element Weyl orbits counted by the cyclic-strong census
    (`_cyclic_strong_censuses`).
    """
    report = Report("degree-5 exhaustive negative search")
    lat = PicardLattice.standard(5)
    catalog = catalog_load(5)
    for label, expected_text in DEGREE5_SLO_ROOTS.items():
        s = catalog.get(label)
        slo = {r for r in lat.enumerate_classes(-2) if is_slo(s, r)}
        expected = set(parse_divisor_list(lat, expected_text))
        expected |= {vneg(d) for d in expected}
        report.check(f"R^slo(X_{{5,{label}}})", expected, slo)
    for name, run in _cyclic_strong_censuses(5).items():
        seq = TABLE_CYCLIC_STRONG[name]
        report.check_true(
            f"sequence {seq} is cyclic strong admissible",
            canonical_cyclic(seq)
            in {canonical_cyclic(v) for v in TABLE_CYCLIC_STRONG.values()},
        )
        report.check(f"orbit size of {seq}", 120, run.orbit_total)
        for label in DEGREE5_SLO_ROOTS:
            s = catalog.get(label)
            report.check(
                f"{s.name}: cyclic strong systems with A^2 = {seq}",
                0,
                run.raw_counts[(s.name, "cyclic-strong")],
            )
    return report


# -- class inventories and sequence tables ------------------------------

#: (|R(X)|, |I(X)|) per degree: root and (-1)-class counts of the lattice.
EXPECTED_CLASS_COUNTS = {
    7: (2, 3),
    6: (8, 6),
    5: (20, 10),
    4: (40, 16),
    3: (72, 27),
    2: (126, 56),
    1: (240, 240),
}


def verify_table1() -> Report:
    """Root and (-1)-class counts for every degree."""
    report = Report("class inventories by degree")
    for degree, (roots, lines) in sorted(
        EXPECTED_CLASS_COUNTS.items(), reverse=True
    ):
        lat = PicardLattice.standard(degree)
        report.check(
            f"degree {degree} |R(X)|", roots, len(lat.enumerate_classes(-2))
        )
        report.check(
            f"degree {degree} |I(X)|", lines, len(lat.enumerate_classes(-1))
        )
    return report


def verify_table3() -> Report:
    """The 15 cyclic strong admissible sequences up to shift/symmetry."""
    report = Report("cyclic strong admissible sequences")
    enumerated = {canonical_cyclic(a) for a in enumerate_cyclic_strong_admissible()}
    listed = {canonical_cyclic(a) for a in TABLE_CYCLIC_STRONG.values()}
    report.check("count up to shift/symmetry", 15, len(enumerated))
    report.check("enumeration matches the listed table", listed, enumerated)
    for name, a in sorted(TABLE_CYCLIC_STRONG.items()):
        report.check_true(f"row {name} admissible", is_admissible(a))
        report.check(f"row {name} sum", 12 - 3 * len(a), sum(a))
    return report


def verify_ixa_counts() -> Report:
    """|I(X,A)| = |I(X)| for every first-kind sequence of length >= 5."""
    report = Report("I(X,A) cardinalities for first-kind sequences")
    counts = []
    for name, a in sorted(TABLE_CYCLIC_STRONG.items()):
        n = len(a)
        if n < 5:
            continue
        degree = 12 - n
        got = len(compute_IXA_windows(a))
        counts.append(got)
        report.check(f"row {name} |I(X,A)|", EXPECTED_CLASS_COUNTS[degree][1], got)
    report.check(
        "multiset of cardinalities",
        sorted((3, 3, 6, 6, 6, 6, 10, 10, 16, 16, 16, 27)),
        sorted(counts),
    )
    return report


# -- Weyl order suite ---------------------------------------------------


def verify_weyl_orders() -> Report:
    """The orbit walk's group orders for degrees 7 down to 2 against the
    product of the invariant degrees (`census.EXPECTED_WEYL_ORDERS`)."""
    report = Report("Weyl group orders")
    for degree in (7, 6, 5, 4, 3, 2):
        report.check(
            f"|W| degree {degree}",
            EXPECTED_WEYL_ORDERS[degree],
            weyl.group_order(degree),
        )
    report.note(
        "|W| degree 1",
        f"{EXPECTED_WEYL_ORDERS[1]} (long-run mode; not enumerated here)",
    )
    return report
