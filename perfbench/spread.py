"""Steadiness check: the driver's acceptance rule, runnable by hand.

    python3 perfbench/spread.py

Runs every workload ten times as the driver does (``run_seconds`` of
``BENCHMARK.json``, seeds 1 to 10) and prints for each end-to-end metric
the distance between the first and third quartile of its ten values
(``statistics.quantiles(values, n=4)``) as a share of their median, next
to the metric's bound.  A spread above half the bound is marked ``!``,
above the bound ``FAIL``.  About 20 minutes; no options.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import statistics  # noqa: E402

from perfbench import metrics as M  # noqa: E402
from perfbench import runner  # noqa: E402

SEEDS = range(1, 11)


def spread(values: "list[float]") -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    seconds = runner.default_seconds()
    bounds = {row[0]: row[3] for row in M.END_TO_END}
    worst = 0.0
    for name in M.W:
        runs = [runner.run_child(name, seed, seconds, 0) for seed in SEEDS]
        failed = [r for r in runs if r["failed"]]
        if failed:
            print(f"{name}: {failed[0]['failed']} failed: {failed[0]['first_error']}")
            return 1
        walls = [r["wall_s"] for r in runs]
        print(
            f"\n{name}: {len(runs)} runs, wall median {statistics.median(walls):.1f} s, "
            f"max {max(walls):.1f} s"
        )
        print(f"  {'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in M.E2E_NAMES:
            values = [r["metrics"][metric] for r in runs]
            s = spread(values)
            mark = ""
            if metric != "setup_s":  # the driver does not hold set-up time to its spread
                worst = max(worst, s / bounds[metric])
                mark = "FAIL" if s > bounds[metric] else ("!" if s > bounds[metric] / 2 else "")
            print(
                f"  {metric:22s} {statistics.median(values):12.4f} {s:8.2%} "
                f"{bounds[metric]:6.3f} {mark}",
                flush=True,  # twenty minutes are long to wait for a block buffer
            )
    print(f"\nworst spread / bound = {worst:.2f} (the driver wants <= 1)")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
