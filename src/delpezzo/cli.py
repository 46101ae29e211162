"""Command-line interface: catalog queries, system checks, censuses, and
the reproduction suites.

Exit codes: 0 success/pass, 1 verification mismatch, 2 input error,
3 resource or internal error.  Every output carries a header with the
package version and a hash of the invocation config, and all results are
deterministic.  An orbit walk whose next layer would not fit in physical
memory stops with a resource error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__, census, paper, surface, toric
from .errors import InputError, InternalError, ResourceError
from .picard import format_divisor

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

#: Arguments that name where output goes, not what is computed.
_OUTPUT_ARGS = ("func", "out", "stats_json")


def _config_hash(args: argparse.Namespace) -> str:
    """A hash of the arguments that choose the computation: the same run
    prints the same hash whatever its output paths."""
    payload = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ARGS}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _header(args: argparse.Namespace) -> str:
    return f"# delpezzo {__version__} config {_config_hash(args)}"


def cmd_surfaces(args) -> int:
    catalog = surface.catalog_load(args.degree)
    entries = catalog.entries
    if args.name is not None:
        entries = (catalog.get(args.name),)
    print(_header(args))
    if args.json:
        print(json.dumps(surface.catalog_export(catalog), indent=2))
        return EXIT_PASS
    for s in entries:
        lat = s.lattice
        roots = ",".join(format_divisor(lat, r) for r in s.simple_roots) or "-"
        irr = sorted(s.irr_lines_set())
        print(
            f"{s.name}\troots: {roots}\t|R^eff|: {len(s.effective_roots_set())}"
            f"\t|I^irr|: {len(irr)}\tI^irr: "
            + ",".join(format_divisor(lat, c) for c in irr)
        )
    return EXIT_PASS


def cmd_check(args) -> int:
    with open(args.file) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"cannot parse {args.file}: {e}") from e
    A = toric.from_json(data)
    squares = A.squares()
    try:  # two squares below -2 make no strong admissible sequence: no kind
        toric.low_entry_rotation(squares)
    except InputError:
        kind = None
    else:
        kind = toric.classify_sequence(squares)
    verdict = {
        "valid": True,
        "degree": A.lattice.degree,
        "squares": list(squares),
        "kind": None if kind is None else kind.kind,
        "type": None if kind is None else kind.type_tag,
    }
    if args.surface is not None:
        s = surface.catalog_load(A.lattice.degree).get(args.surface)
        exc = toric.is_exceptional(s, A)
        strong = toric.is_strong_exceptional(s, A)
        cyclic = toric.is_cyclic_strong_exceptional(s, A)
        chain = toric.augmentation_chain(s, A)
        verdict.update(
            surface=s.name,
            exceptional=exc.ok,
            strong=strong.ok,
            cyclic_strong=cyclic.ok,
            witness=(strong if not strong.ok else cyclic).witness,
            augmentation_certificate=None
            if chain is None
            else [step.__dict__ for step in chain],
        )
    print(_header(args))
    print(json.dumps(verdict, indent=2, default=list))
    return EXIT_PASS


def _resolve_sequence(args):
    """A --sequence value: a preset name, or a JSON integer list as a tuple."""
    text = args.sequence
    if text in census.SEQUENCE_PRESETS:
        return text
    try:
        squares = json.loads(text)
    except json.JSONDecodeError:
        squares = None
    if not toric.is_int_list(squares):
        raise InputError(
            f"--sequence must be a preset name or a JSON integer list; "
            f"known presets: {', '.join(sorted(census.SEQUENCE_PRESETS))}"
        )
    return tuple(squares)


def cmd_census(args) -> int:
    sequence = _resolve_sequence(args)
    modes = census.MODES if args.mode == "both" else (args.mode,)
    surfaces = None
    if args.surface is not None:
        preset = census.SEQUENCE_PRESETS.get(sequence)
        degree = 12 - len(sequence) if preset is None else preset.degree
        surfaces = (surface.catalog_load(degree).get(args.surface),)
    run = census.census_for_preset(sequence, surfaces=surfaces, modes=modes)
    header = _header(args)
    rows = [
        (r.surface, r.mode, r.total_count, r.stabilizer_order,
         r.essentially_different_count)
        for _key, r in sorted(run.records.items())
    ]
    print(header)
    print(f"# orbit {run.orbit_total} sequence {list(run.squares)}")
    print("surface\tmode\ttotal\tstabilizer\tessential")
    for row in rows:
        print("\t".join(str(x) for x in row))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(header + "\n")
            fh.write("surface,mode,total,stabilizer,essential\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
        sidecar = args.out + ".reps.json"
        reps = {
            f"{r.surface}/{r.mode}": [A.to_json() for A in r.representatives]
            for _key, r in sorted(run.records.items())
        }
        with open(sidecar, "w") as fh:
            json.dump({"header": header, "representatives": reps}, fh, indent=2)
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(run.stats, fh, indent=2, sort_keys=True)
    return EXIT_PASS


#: The `reproduce` suites: name -> the function producing its report.
SUITE_RUNNERS = {
    "table1": paper.verify_table1,
    "table3": paper.verify_table3,
    "table5-IXA": paper.verify_ixa_counts,
    "table7": paper.verify_table7,
    "table8": paper.verify_table8,
    "section13": paper.verify_section13,
    "good-classes": paper.verify_good_classes,
    "table9": paper.verify_cyclic_strong_classification,
    "degree5-negative": paper.verify_degree5_negative,
    "weyl-orders": paper.verify_weyl_orders,
    "types3to6-deg2": paper.verify_degree2_type3to6,
}
SUITES = tuple(SUITE_RUNNERS)


def cmd_reproduce(args) -> int:
    report = SUITE_RUNNERS[args.suite]()
    text = _header(args) + "\n" + report.render()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_PASS if report.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Toric systems on weak del Pezzo surfaces: catalog, "
        "checkers, and counterexample censuses.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("surfaces", help="list the surface catalog of a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--name", help="restrict to one surface type label")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_surfaces)

    p = sub.add_parser("check", help="check a toric system from a JSON file")
    p.add_argument("file", help='JSON file {"degree": d, "terms": [[...]]}')
    p.add_argument("--surface", help="surface type label for effectiveness tests")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("census", help="counterexample census over a Weyl orbit")
    p.add_argument("--sequence", required=True,
                   help="preset name (e.g. IIb-deg2) or JSON list of squares")
    p.add_argument("--surface", help="restrict to one surface type label")
    p.add_argument("--mode", choices=("strong", "exceptional", "both"),
                   default="both")
    p.add_argument("--out", help="CSV output path (plus .reps.json sidecar)")
    p.add_argument("--stats-json", metavar="PATH",
                   help="write the sweep's work counts and phase timers as JSON")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("reproduce", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--out", help="write the report to a file as well")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalError, ResourceError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
