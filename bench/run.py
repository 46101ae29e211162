"""Benchmark of the delpezzo library: stabilizer scans and orbit censuses.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh worker processes (bench/worker.py), one after another, for
about `--seconds` and at least a few samples.  Each worker sets
the workload up, times its operation once and checks the outputs.  Worker i
gets the seed `N * 1000 + i`; the reproduced numbers must agree across all
workers, so every run also checks that they do not depend on the seed.

With `--trace 0` the end-to-end metrics are the medians over the workers.
With `--trace 1` untraced and traced workers alternate: the traced ones
report per-layer metrics (medians; exact counts must agree between
workers, and every orbit must follow the Poincare polynomial of W), and
`trace.overhead_frac` compares the two.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it give the machine, every worker and every metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Stop starting workers this long after the run began (a run must end within 180 s).
HARD_LIMIT_S = 150.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def machine_block() -> dict:
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _git_commit(),
        "loadavg_start": [float(x) for x in loadavg],
    }


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
            # Same set and dict iteration order in every worker.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {seed} did not finish in time") from exc
    finished = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker {seed} exited with {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(seed=seed, traced=traced, process_s=finished - spawned)
    if "op_end" in out:
        out["setup_s"] = out["op_start"] - spawned
        out["wall_s"] = out["op_end"] - out["op_start"]
        out["total_s"] = out["setup_s"] + out["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delpezzo" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + ["selftest"]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2
    machine = machine_block()
    print("# machine " + json.dumps(machine))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    min_each = 2 if args.trace else 3
    workers: list[dict] = []
    try:
        while True:
            done_plain = sum(not w["traced"] for w in workers)
            done_traced = len(workers) - done_plain
            elapsed = time.monotonic() - start
            longest = max((w["process_s"] for w in workers), default=0.0)
            enough = done_plain >= min_each and (not args.trace or done_traced >= min_each)
            traced = bool(args.trace) and len(workers) % 2 == 1
            # Start the next worker only if it would end, on its median, no
            # later than half a worker past --seconds.
            same_kind = [w["process_s"] for w in workers if w["traced"] == traced]
            next_s = statistics.median(same_kind) if same_kind else 0.0
            if (enough and elapsed + next_s / 2 >= args.seconds) or (
                workers and elapsed + longest > HARD_LIMIT_S
            ):
                break
            w = run_worker(args.workload, args.seed * 1000 + len(workers), traced, deadline)
            workers.append(w)
            print("# worker " + json.dumps(
                {k: w.get(k) for k in ("seed", "traced", "setup_s", "wall_s", "peak_rss_mb",
                                       "process_s", "errors")}))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    # Every worker has its own seed; the reproduced numbers must not move.
    checked = [w for w in workers if not w["errors"]]
    for w in checked:
        if w["digest"] != checked[0]["digest"]:
            w["errors"].append("outputs differ from the first worker's (seed-dependent)")
    failed = [w for w in workers if w["errors"]]
    # Timings count from every worker whose operation completed, correct or not.
    plain = [w for w in workers if "wall_s" in w and not w["traced"]]
    traced = [w for w in workers if "wall_s" in w and w["traced"]]
    if not plain or (args.trace and not traced):
        print("benchmark aborted: no operation completed", file=sys.stderr)
        for w in failed:
            print("\n".join(w["errors"]), file=sys.stderr)
        return 3

    correct = not failed
    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_frac":
                plain_total = statistics.median(w["total_s"] for w in plain)
                traced_total = statistics.median(w["total_s"] for w in traced)
                value = (traced_total - plain_total) / plain_total
            else:
                values = [w["layers"].get(name, 0) for w in traced]
                value = statistics.median(values)
                if unit == "count":
                    value = values[0]
                    if len(set(values)) != 1:
                        print(f"# count {name} differs between workers: {values}")
                        correct = False
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            m["name"]: {"value": statistics.median(w[m["name"]] for w in plain),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {len(failed) / len(workers):.6g} ({len(failed)} of {len(workers)})")
    for w in failed:
        print("# failure " + json.dumps({"seed": w["seed"], "errors": w["errors"]}))
    print(json.dumps({"correct": correct, "attempted": len(workers),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
