#!/usr/bin/env python
"""Nyx snapshot parallel write: compare all four strategies end to end.

Reproduces the paper's Fig. 16 scenario at laptop scale, twice:

* **functionally** — runs the real pipelines (no-compression, H5Z-SZ-style
  filter, predictive overlap+reorder) on thread ranks against real shared
  files and verifies every byte read back;
* **performance** — replays the same snapshot through the discrete-event
  simulator at 512 simulated Summit processes and prints the Fig. 16-style
  breakdown plus an ASCII timeline (the paper's Fig. 4).

Run:  python examples/nyx_parallel_write.py
"""

import os
import tempfile

import numpy as np

from repro.compression import SZCompressor
from repro.core import RealDriver, build_workload, simulate_strategy
from repro.core.workload import scale_workload
from repro.data import NyxGenerator
from repro.data.partition import rank_payload, rank_regions
from repro.hdf5 import File, FileAccessProps
from repro.sim import SUMMIT

SHAPE = (48, 48, 48)
NRANKS = 8


def functional_comparison(workdir: str) -> None:
    """Run the real pipelines and check the files agree."""
    gen = NyxGenerator(SHAPE, seed=42)
    names = list(gen.field_names)
    codecs = {n: SZCompressor(bound=gen.error_bound(n), mode="abs") for n in names}
    # One (fields, region) pair per rank: the near-cubic grid decomposition.
    payload = rank_payload({n: gen.field(n) for n in names}, SHAPE, rank_regions(SHAPE, NRANKS))

    path_pred = os.path.join(workdir, "nyx_predictive.phd5")
    with File(path_pred, "w", fapl=FileAccessProps(async_io=True, async_workers=4)) as f:
        stats = RealDriver("reorder").write(f, payload, SHAPE, codecs)

    path_filt = os.path.join(workdir, "nyx_filter.phd5")
    with File(path_filt, "w") as f:
        RealDriver("filter").write(f, payload, SHAPE, codecs)

    size_pred = os.path.getsize(path_pred)
    size_filt = os.path.getsize(path_filt)
    logical = sum(gen.field(n).nbytes for n in names)
    print(f"functional run ({NRANKS} ranks, {len(names)} fields, {SHAPE} grid):")
    print(f"  logical data        : {logical / 1e6:8.2f} MB")
    print(f"  filter baseline file: {size_filt / 1e6:8.2f} MB "
          f"(ratio {logical / size_filt:.1f}x, no extra space)")
    print(f"  predictive file     : {size_pred / 1e6:8.2f} MB "
          f"(ratio {logical / size_pred:.1f}x, Rspace=1.25)")
    overflow = sum(s.total_overflow for s in stats)
    print(f"  overflow redirected : {overflow} bytes "
          f"across {sum(1 for s in stats if s.total_overflow)} ranks")
    with File(path_pred, "r") as fa, File(path_filt, "r") as fb:
        for n in names:
            assert np.array_equal(fa[f"fields/{n}"].read(), fb[f"fields/{n}"].read())
    print("  contents verified  : predictive == filter reconstruction\n")


def performance_comparison() -> None:
    """Fig. 16-style breakdown on the simulator at 512 Summit processes."""
    wl = build_workload("nyx", nranks=8, shape=(64, 64, 64), seed=3,
                        include_particles=True)
    wl = scale_workload(wl, nranks=512, values_per_partition=256**3)
    print("simulated run: 512 Summit processes, 9 fields, "
          f"{wl.original_total / 1e9:.0f} GB logical, ratio {wl.overall_ratio:.1f}x")
    header = f"  {'solution':9s} {'total':>8s} {'compress':>9s} {'write':>8s} {'exposed':>8s}"
    print(header)
    results = {}
    for strat in ("nocomp", "filter", "overlap", "reorder"):
        res = simulate_strategy(strat, wl, SUMMIT)
        results[strat] = res
        print(f"  {strat:9s} {res.makespan_seconds:7.2f}s {res.compress_seconds:8.2f}s "
              f"{res.write_seconds:7.2f}s {res.write_exposed_seconds:7.2f}s")
    def _speedup(num: str, den: str) -> float:
        return results[num].makespan_seconds / results[den].makespan_seconds

    print(f"\n  speedups: filter/nocomp={_speedup('nocomp', 'filter'):.2f}x  "
          f"overlap/filter={_speedup('filter', 'overlap'):.2f}x  "
          f"reorder/nocomp={_speedup('nocomp', 'reorder'):.2f}x")
    print("  (paper: 1.87x, 1.79x, 4.46x)\n")
    # Fig. 4-style timeline of a few ranks.
    trace = results["reorder"].trace
    few = [r for r in trace.records if r.rank < 4]
    sub = type(trace)()
    sub.records = few
    print("timeline (4 of 512 ranks; P=predict, A=allgather, C=compress, W=write, O=overflow):")
    print(sub.render_timeline(width=70))


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="nyx_write_")
    functional_comparison(workdir)
    performance_comparison()


if __name__ == "__main__":
    main()
