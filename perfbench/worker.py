"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file as a child and reads the one JSON object it
prints last.  The child's own ``ru_maxrss`` is the run's memory metric,
so nothing but the run happens here.

Timed pass (``--trace 0``): set the workload up three times (the median
is ``setup_s``), run its loop for ``--seconds``, report every end-to-end
metric.  Traced pass (``--trace 1``): see ``layers.py``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()  # set-up time starts before the imports

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench import metrics as M  # noqa: E402
from perfbench.workloads import MB, WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` is their median (plus the one import).
SETUPS = 3


def timed_pass(name: str, seed: int, seconds: float, scale: str) -> dict:
    import_s = time.perf_counter() - _T0
    host = WORKLOADS[name](seed, scale, ".")
    setups = []
    try:
        for attempt in range(SETUPS):
            if attempt:
                host.teardown()
                inputs.forget()  # every set-up generates its inputs from nothing
            start = time.perf_counter()
            host.setup()
            setups.append(time.perf_counter() - start)
        host.run(seconds)
    finally:
        host.teardown()

    meter = host.meter
    values = host.metrics()
    values["setup_s"] = import_s + statistics.median(setups)
    # The daemon child has been reaped by teardown(), so RUSAGE_CHILDREN
    # holds its peak; everything else is this process.
    who = resource.RUSAGE_CHILDREN if name == M.SERVED else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss * 1024 / MB
    values["ok_fraction"] = (meter.attempted - meter.failed) / meter.attempted
    return {
        "metrics": values,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "first_error": meter.first_error,
        "counters": host.counters(),
        "samples": host.samples(),
        "inputs_sha256": host.input_digest,
        "setup_samples_s": [import_s + s for s in setups],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory (becomes the cwd)")
    args = ap.parse_args(argv)
    # Relative paths from here on: the daemon's unix socket path must fit
    # in sockaddr_un however deep the checkout sits.
    os.chdir(args.work)
    if args.trace:
        from perfbench.layers import traced_pass

        out = traced_pass(args.workload, args.seed, args.seconds, args.scale)
    else:
        out = timed_pass(args.workload, args.seed, args.seconds, args.scale)
    out.update(workload=args.workload, seed=args.seed, scale=args.scale, trace=args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
