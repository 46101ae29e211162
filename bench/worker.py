"""One measured process: set up a workload, time its operation once, check it.

Started by run.py; prints one JSON line.  Exit code 3 means the library
could not be imported (nothing was measured).

    python3 bench/worker.py --workload NAME --seed N [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _proc_status_mb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from delpezzo import census, effectivity, surface, toric, weyl
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    import workloads
    from tracer import Tracer

    setup, op, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(
            {"census": census, "effectivity": effectivity, "surface": surface,
             "toric": toric, "weyl": weyl}
        )
    out = {"errors": []}
    counts = {}
    try:
        state = setup(args.seed)
        after_setup = {
            "proc.rss_after_setup_mb": _proc_status_mb("VmRSS"),
            "proc.hwm_after_setup_mb": _proc_status_mb("VmHWM"),
        }
        out["op_start"] = time.monotonic()
        result = op(state)
        out["op_end"] = time.monotonic()
        errors, out["digest"], counts = check(state, result)
        out["errors"].extend(errors)
    except Exception:
        out["errors"].append(traceback.format_exc())
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None and "op_end" in out:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["layers"] = {
            **tracer.metrics(), **counts, **after_setup,
            "proc.cpu_s": usage.ru_utime + usage.ru_stime,
        }
        out["errors"].extend(workloads.check_orbits(args.workload, tracer.orbits))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
