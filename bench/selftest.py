"""Self-test of the benchmark harness; finishes in seconds.

    python3 bench/selftest.py

Checks BENCHMARK.json against the shape the benchmark promises, runs the
small `selftest` workload (a full W(D5) stabilizer scan) through run.py
untraced and traced, checks that every declared metric is printed with
its unit, and checks that the benchmark fails without the library sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selftest", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (got, want)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        assert f"# metric {name} = " in proc.stdout, name


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_result(run(ROOT, 0), spec["end_to_end"])
    traced = run(ROOT, 1)
    check_result(traced, spec["per_layer"])
    metrics = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["weyl.orbit_rows"]["value"] == 1920, metrics["weyl.orbit_rows"]
    assert metrics["weyl.orbit_layers"]["value"] == 21, metrics["weyl.orbit_layers"]
    assert metrics["weyl.stabilizer_elements"]["value"] == 146
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), 0)
        assert proc.returncode != 0 and not proc.stdout.strip().endswith("}"), proc.stdout
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
