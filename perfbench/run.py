"""hampack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a hampack checkout; hampack is imported from
./src.  Workloads, metrics and their expected interactions are listed
in perfbench/README.md and BENCHMARK.json.

With --trace 0 the run prints the end-to-end metrics, measured untraced
in a fresh workload process; set-up is timed in that process and in two
more set-up-only processes, and the median is reported.  With --trace 1
it prints the per-layer metrics of a traced pass, after checking that
an untraced pass over the same trials gives identical records.  Lines
before the last describe the machine, every trial (seed, outcome tag,
counters, check verdict) and the run; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 unless a packing fails the independent check, the
traced and untraced records differ, or the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workload import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 3


class RunError(Exception):
    """The run could not be made; no result is printed."""


def workload_process(args: list, deadline: float) -> dict:
    """Run workload.py in a fresh process pinned to one thread per library."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), *map(str, args),
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process passed the {DEADLINE_S:.0f} s "
                       "deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def trial_count(seconds: float, nominal_s: float) -> int:
    return max(1, round(seconds / nominal_s))


def measure(args) -> tuple[dict, dict]:
    """(report of the main workload process, metrics)."""
    spec = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", args.seed]
    if args.trace:
        # both passes share the run's time
        trials = trial_count(args.seconds / 2, spec["nominal_s"])
        rep = workload_process(common + ["--trials", trials, "--mode", "trace"],
                               deadline)
        return rep, rep["layers"]
    setups = [workload_process(common + ["--trials", 0, "--mode", "setup"],
                               deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    trials = trial_count(args.seconds, spec["nominal_s"])
    rep = workload_process(common + ["--trials", trials, "--mode", "run"],
                           deadline)
    setups.append(rep["setup_s"])
    times = [r["time_s"] for r in rep["trials"]]
    metrics = {
        "trial_s_p50": {"value": statistics.median(times), "unit": "s"},
        "wall_s": {"value": sum(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
    }
    return rep, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hampack benchmark, one run")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "hampack" / "__init__.py").is_file():
        print("run.py: no src/hampack here; run from a hampack checkout root",
              file=sys.stderr)
        return 2
    try:
        rep, metrics = measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"machine": rep["machine"]}))
    records = rep["trials"]
    for r in records:
        print(json.dumps({"trial": r}, sort_keys=True))
    failed = sum(r["outcome"] != "success" or r["check"] is not None
                 for r in records)
    bad_checks = [r["seed"] for r in records if r["check"] is not None]
    mismatched = rep.get("mismatched_seeds", [])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trials": len(records), "fail_share": failed / len(records),
        "outcomes": dict(Counter(r["outcome"] for r in records)),
        "failed_checks": bad_checks, "trace_mismatches": mismatched}))
    correct = not bad_checks and not mismatched
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
