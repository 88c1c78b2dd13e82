"""perfbench entry point.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload, as ``BENCHMARK.json``'s driver calls it; the
    last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--workloads a,b] [--seed N] [--trace] [--out DIR]``
    every workload (or the named ones), a workload x metric table, the
    same numbers as JSON under ``--out``; ``--trace`` adds the traced
    pass and its per-layer ledger.  ``--selftest`` runs the whole thing
    at tiny scale and checks the benchmark's own invariants.

Each run happens in a fresh child process (``worker.py``).  Exit status
is non-zero when any operation failed or any read-back broke its bound.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(
        f"perfbench: {os.path.join(ROOT, 'src', 'repro')} not found - the benchmark "
        "measures the repro package of the checkout it sits in"
    )
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402

from perfbench import metrics as M  # noqa: E402
from perfbench import report, runner, selfcheck  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        allow_abbrev=False, description="perfbench: end-to-end + per-layer benchmark"
    )
    ap.add_argument("--workload", choices=M.W, help="run this one workload (driver mode)")
    ap.add_argument("--workloads", help="comma-separated subset for the table (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                    help="traced pass: per-layer metrics and the ledger")
    ap.add_argument("--out", help="directory for the JSON results and traces")
    ap.add_argument("--selftest", action="store_true",
                    help="tiny-scale run of everything plus the benchmark's own checks")
    args = ap.parse_args(argv)

    if args.selftest:
        return selfcheck.selftest(args.seed)
    seconds = args.seconds if args.seconds is not None else runner.default_seconds()
    if args.workload:
        result = runner.run_child(args.workload, args.seed, seconds, args.trace)
        report.print_run(result)
        if args.out:
            report.write_out(args.out, [result])
        print(runner.contract_line(result))
        return 0 if result["failed"] == 0 and not result["leaked_processes"] else 1
    names = args.workloads.split(",") if args.workloads else list(M.W)
    unknown = [n for n in names if n not in M.W]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {list(M.W)}")
    return report.table_run(names, args.seed, seconds, args.trace, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
