"""Every number the `reproduce` suites print, and the census CLI's files,
pinned against outputs committed under tests/golden.

The golden reports are `delpezzo reproduce <suite> --out` files without
their first line, the `# delpezzo <version> config <hash>` header.
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from delpezzo import census, cli

GOLDEN = Path(__file__).parent / "golden"


def test_every_suite_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(cli.SUITES)


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_report_matches_golden(suite):
    # The suites read their censuses through the cached runner
    # (`paper._census`): Tables 7/8 one IIb run, Tables 9/10 and the
    # degree-5 suite one cyclic-strong run per sequence, so each runs once.
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
    def cached(preset, surfaces=None, modes=census.MODES):
        assert (preset, surfaces, modes) == ("IIb-deg2", None, census.MODES)
        return iib_run

    monkeypatch.setattr(census, "census_for_preset", cached)
    out = tmp_path / "iib.csv"
    assert cli.main(["census", "--sequence", "IIb-deg2", "--out", str(out)]) == 0
    for suffix, digest in CENSUS_FILE_DIGESTS.items():
        lines = Path(f"{out}{suffix}").read_text().splitlines(keepends=True)
        body = "".join(line for line in lines if "# delpezzo " not in line)
        assert hashlib.sha256(body.encode()).hexdigest() == digest, suffix
