#!/usr/bin/env python3
"""Compare two result sets written by ``bench/suite.py``.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs and the change of the median. For each
per-layer metric of the traced runs it prints each side's median and the
change, so a gain can be traced to the layer whose self time moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(result_set: dict, trace: int) -> dict[str, dict[str, tuple[list[float], str]]]:
    """workload -> metric -> (values over runs, unit)."""
    out: dict = {}
    for run in result_set["runs"]:
        if run["trace"] != trace:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        result = run["result"]
        metrics.setdefault("failed_frac", ([], "ratio"))[0].append(
            result["failed"] / result["attempted"])
    return out


def delta(base: float, new: float) -> str:
    if base == 0:
        return "n/a"
    return f"{(new - base) / abs(base):+.1%}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    for side, rs in (("base", base), ("new", new)):
        env = rs["env"]
        print(f"{side}: Python {env['python']}, nproc {env['nproc']}, {env['cpu']},"
              f" {rs['seconds']} s per run, seeds {rs['seeds']}")

    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced runs)")):
        b_all, n_all = collect(base, trace), collect(new, trace)
        for workload in b_all:
            if workload not in n_all:
                continue
            print(f"\n{workload} {title}")
            print(f"  {'metric':<30} {'unit':<6} {'base q1/median/q3':>26}"
                  f" {'new q1/median/q3':>26} {'delta':>8}")
            for name, (bv, unit) in b_all[workload].items():
                if name not in n_all[workload]:
                    continue
                nv = n_all[workload][name][0]
                bq, nq = quartiles(bv), quartiles(nv)
                print(f"  {name:<30} {unit:<6}"
                      f" {'/'.join(f'{x:.4g}' for x in bq):>26}"
                      f" {'/'.join(f'{x:.4g}' for x in nq):>26} {delta(bq[1], nq[1]):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
