"""Every number the `reproduce` suites print, and the census CLI's files,
pinned against outputs committed under tests/golden.

The golden reports are `delpezzo reproduce <suite> --out` files without
their first line, the `# delpezzo <version> config <hash>` header.
`types3to6-deg2` is not pinned here: it walks W(E7) seven times.
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from delpezzo import census, cli

GOLDEN = Path(__file__).parent / "golden"

PINNED_SUITES = [suite for suite in cli.SUITES if suite != "types3to6-deg2"]


def test_every_other_suite_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(PINNED_SUITES)


@pytest.mark.parametrize("suite", PINNED_SUITES)
def test_suite_report_matches_golden(suite):
    # The Table 7/8 suites read the cached IIb census (`paper._iib_census`)
    # and Tables 9/10 and the degree-5 suite the cached cyclic-strong ones
    # (`paper._cyclic_strong_censuses`), so each census runs once.
    report = cli.SUITE_RUNNERS[suite]()
    got = (report.render() + "\n").splitlines()
    expected = (GOLDEN / f"{suite}.txt").read_text().splitlines()
    diff = "\n".join(difflib.unified_diff(expected, got, "golden", "computed", lineterm=""))
    assert got == expected, diff


#: sha256 of the files of `delpezzo census --sequence IIb-deg2 --out PATH`
#: without their lines holding the `# delpezzo ...` header.
CENSUS_FILE_DIGESTS = {
    "": "64cd60c13e31ede4f0b7c71e81b9f1250ae3e7873e5d90e2a40e7ffdbf582360",
    ".reps.json": "66e1ab8594a492daa3693214439885fc1efd96bb572cedde0187ed1a341c39d8",
}


def test_iib_census_files_are_pinned(tmp_path, monkeypatch, iib_run):
    # The CLI's census is the cached full IIb census that `reproduce
    # table7` reads: the same preset, every surface, both modes.
    initial = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()

    def cached(A0, surfaces=None, modes=census.MODES):
        assert (A0.terms, surfaces, modes) == (initial.terms, None, census.MODES)
        return iib_run

    monkeypatch.setattr(census, "census_for_preset", cached)
    out = tmp_path / "iib.csv"
    assert cli.main(["census", "--sequence", "IIb-deg2", "--out", str(out)]) == 0
    for suffix, digest in CENSUS_FILE_DIGESTS.items():
        lines = Path(f"{out}{suffix}").read_text().splitlines(keepends=True)
        body = "".join(line for line in lines if "# delpezzo " not in line)
        assert hashlib.sha256(body.encode()).hexdigest() == digest, suffix
