import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from delpezzo import census, cli, toric
from delpezzo.errors import InputError
from delpezzo.toric import ToricSystem


def test_surfaces_listing(capsys):
    assert cli.main(["surfaces", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# delpezzo")
    assert out.count("X_{3") == 21


def test_surfaces_single_name(capsys):
    assert cli.main(["surfaces", "--degree", "6", "--name", "A1+A2"]) == 0
    out = capsys.readouterr().out
    assert "I^irr: E3" in out


def test_surfaces_bad_degree(capsys):
    assert cli.main(["surfaces", "--degree", "99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_verb(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(census.section13_system().to_json()))
    assert cli.main(["check", str(path), "--surface", "A1+2A3"]) == 0
    out = capsys.readouterr().out
    body = json.loads(out.split("\n", 1)[1])
    assert body["valid"] and body["kind"] == "second" and body["type"] == "IIb"
    assert body["strong"] and not body["cyclic_strong"]
    assert body["augmentation_certificate"] is None


#: A valid degree-5 toric system with two squares below -2 (-7 and -3).
TWO_BELOW_MINUS_2 = {
    "degree": 5,
    "terms": [
        [-3, 0, 0, 0, 4], [1, -1, -1, 0, -1], [0, 0, 1, 0, 0], [0, 1, -1, -1, 0],
        [0, 0, 0, 1, 0], [4, -1, 0, -1, -3], [1, 0, 0, 0, -1],
    ],
}


def test_check_shifted_system(tmp_path, capsys):
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(toric.shift(census.section13_system()).to_json()))
    assert cli.main(["check", str(path), "--surface", "A1+2A3"]) == 0
    body = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert body["squares"] == [-2, -2, -2, -1, -2, -2, -1, -2, -3, -1]
    assert (body["kind"], body["type"]) == ("second", "IIb")
    assert body["exceptional"] and not body["strong"]


def test_check_without_kind(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_BELOW_MINUS_2))
    assert cli.main(["check", str(path), "--surface", "A1"]) == 0
    body = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert body["squares"] == [-7, -2, -1, -3, -1, 5, 0]
    assert body["kind"] is None and body["type"] is None
    assert body["surface"] == "X_{5,A1}"
    assert body["exceptional"] and not body["strong"]


def test_check_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli.main(["check", str(path)]) == 2
    path.write_text(json.dumps({"degree": 6, "terms": [[1, 0, 0, 0]] * 6}))
    assert cli.main(["check", str(path)]) == 2
    # Wrong shapes and non-integer entries are input errors, not tracebacks.
    terms = census.section13_system().to_json()["terms"]
    for bad in (
        {"terms": [[1]]},
        {"degree": "x", "terms": []},
        [1, 2],
        {"degree": 2, "terms": terms, "extra": 0},
        {"degree": 2.0, "terms": terms},
        {"degree": 2, "terms": [terms[0][:-1] + [1.5]] + terms[1:]},
        {"degree": 2, "terms": [terms[0][:-1] + [True]] + terms[1:]},
        {"degree": 2, "terms": [7] + terms[1:]},
        {"degree": 3, "terms": [[1, 0, 0, 0, 0, 0, 0, 0, 0]]},
    ):
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert cli.main(["check", str(path)]) == 2, bad
        assert capsys.readouterr().err.startswith("error:")


def test_check_missing_file(capsys):
    assert cli.main(["check", "/nonexistent/system.json"]) == 2


def test_check_unreadable_inputs(tmp_path, capsys):
    # A directory and a non-UTF-8 file are input errors, not tracebacks
    # ending in the mismatch code 1.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"degree": 2, "terms": "\xe9"}')
    for path in (tmp_path, latin1):
        capsys.readouterr()
        assert cli.main(["check", str(path)]) == 2, path
        assert capsys.readouterr().err.startswith("error:")


def test_python_m_delpezzo():
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "delpezzo", "reproduce", "table1"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS class inventories by degree" in done.stdout


def test_reproduce_does_not_depend_on_string_hashing():
    # table9 compares sets of type labels; their rendered order must not
    # follow PYTHONHASHSEED.
    src = Path(__file__).parent.parent / "src"
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "delpezzo", "reproduce", "table9"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert "listed + excluded = all types" in outputs[0]
    assert outputs[0] == outputs[1]


def test_reproduce_pass(capsys):
    assert cli.main(["reproduce", "table1"]) == 0
    out = capsys.readouterr().out
    assert "PASS class inventories by degree" in out


def test_reproduce_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert cli.main(["reproduce", "table3", "--out", str(out_path)]) == 0
    assert "PASS" in out_path.read_text()


def test_reproduce_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "table99"])
    assert exc.value.code == 2


def test_readme_lists_every_suite():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listing = re.search(r"Available `reproduce` suites:(.*?)\.", readme, re.S)
    assert listing is not None
    assert tuple(re.findall(r"`([^`]+)`", listing.group(1))) == cli.SUITES


def test_resolve_sequence():
    class Args:
        sequence = "IIb-deg2"

    assert isinstance(cli._resolve_sequence(Args()), ToricSystem)
    Args.sequence = "[0,1,-1,-2,-1,-3]"
    A = cli._resolve_sequence(Args())
    assert isinstance(A, ToricSystem) and A.squares() == (0, 1, -1, -2, -1, -3)
    # A first-kind sequence is refused before any search.
    Args.sequence = "[0,0,-1,-1,-1]"
    with pytest.raises(InputError, match="second kind"):
        cli._resolve_sequence(Args())
    Args.sequence = "not json"
    with pytest.raises(Exception):
        cli._resolve_sequence(Args())
    # Non-integer entries are refused, not truncated.
    for text in ("[0,0,-1,-1,-1.5]", "[0,0,-1,-1,true]", '{"a": 1}', "5"):
        Args.sequence = text
        with pytest.raises(InputError, match="JSON integer list"):
            cli._resolve_sequence(Args())


def test_census_names_the_rotation(capsys):
    # The shifted IIb-deg2 squares are realized, and the census asks for
    # the rotation that puts the entry below -2 last.
    code = cli.main(["census", "--sequence", "[-2,-2,-2,-1,-2,-2,-1,-2,-3,-1]"])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "rotate" in err and "left by 9" in err
    assert "(-1, -2, -2, -2, -1, -2, -2, -1, -2, -3)" in err
    assert "unsupported r-value" not in err


def test_census_refuses_a_rotated_sequence_before_the_search(capsys, monkeypatch):
    # A degree-1 rotation of IV-deg1: refused with the rotation named,
    # before any search through the 17,520 degree-1 1-classes.
    def no_search(*args):
        raise AssertionError("searched for a system")

    monkeypatch.setattr(toric, "find_system_with_squares", no_search)
    code = cli.main(["census", "--sequence", "[-7,-2,0,1,-2,-2,-2,-2,-2,-2,-1]"])
    assert code == cli.EXIT_INPUT
    assert "rotate" in capsys.readouterr().err


def test_census_refuses_a_non_admissible_sequence_at_once():
    # No system realizes these squares; the refusal comes from the
    # classification, not from an exhausted search over every candidate.
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "delpezzo", "census", "--sequence",
         "[-1,-2,-2,-2,-1,-2,-2,-1,-3,-2]"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == cli.EXIT_INPUT
    assert "not an admissible sequence" in done.stderr


def test_census_refuses_an_entry_outside_the_class_range(capsys):
    # A second-kind sequence of degree 6 with an entry 2: no system search
    # reaches it, and the message names the sequence and the range.
    code = cli.main(["census", "--sequence", "[-2,-1,-2,2,0,-3]"])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "(-2, -1, -2, 2, 0, -3)" in err
    assert "every entry except the one below -2 must lie in -2..1" in err
    assert "unsupported r-value" not in err


def test_config_hash_stable():
    parser = cli.build_parser()
    a1 = parser.parse_args(["surfaces", "--degree", "3"])
    a2 = parser.parse_args(["surfaces", "--degree", "3"])
    a3 = parser.parse_args(["surfaces", "--degree", "4"])
    assert cli._config_hash(a1) == cli._config_hash(a2)
    assert cli._config_hash(a1) != cli._config_hash(a3)
