#!/usr/bin/env python3
"""Run every workload and print every metric by name, with its unit.

    python3 bench/suite.py --seeds 1,2,3 --trace --out BENCH_x.json

Each run is a fresh ``bench/run.py`` process, one at a time, measuring for
``run_seconds`` of ``BENCHMARK.json``. With
``--trace`` every workload also gets two traced runs on the first seed,
whose per-layer counts must agree exactly. The result set written to
``--out`` records every run with the Python version, ``nproc`` and the CPU
model; ``bench/compare.py`` compares two result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """metric -> (median over runs, unit)."""
    names = runs[0]["metrics"]
    return {n: (statistics.median(r["metrics"][n]["value"] for r in runs),
                names[n]["unit"]) for n in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    ap.add_argument("--trace", action="store_true", help="add two traced runs per workload")
    ap.add_argument("--out", default=".bench_work/results.json", help="result set path")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    result_set = {"env": environment(), "seconds": seconds, "seeds": seeds, "runs": []}
    all_correct = True
    for name in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            res = bench_run(name, seed, seconds, 0)
            runs.append(res)
            result_set["runs"].append({"workload": name, "seed": seed, "trace": 0, "result": res})
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        all_correct &= all(r["correct"] for r in runs)
        print(f"{name}: median of {len(runs)} runs")
        for metric, (value, unit) in summarize(runs).items():
            print(f"  {metric:<14} {value:>12.6g} {unit}")
        print(f"  {'failed_frac':<14} {failed / attempted:>12.6g} ratio ({failed} of {attempted})")
        if args.trace:
            traced = [bench_run(name, seeds[0], seconds, 1) for _ in range(2)]
            for res in traced:
                result_set["runs"].append(
                    {"workload": name, "seed": seeds[0], "trace": 1, "result": res})
            all_correct &= all(r["correct"] for r in traced)
            a, b = (r["metrics"] for r in traced)
            differ = [m for m in a
                      if a[m]["unit"] not in ("s", "us") and a[m]["value"] != b[m]["value"]]
            all_correct &= not differ
            print(f"  per-layer (median of 2 traced runs, seed {seeds[0]}):")
            for metric, (value, unit) in summarize(traced).items():
                print(f"    {metric:<30} {value:>12.6g} {unit}")
            print(f"    counts repeat exactly: {'no: ' + ', '.join(differ) if differ else 'yes'}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_set, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
