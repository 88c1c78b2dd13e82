#!/usr/bin/env python
"""Tuning the extra-space ratio: the paper's Fig. 9 / Fig. 14 workflow.

The extra-space ratio Rspace is the framework's one user-facing knob:
bigger slots waste storage but absorb prediction error (fewer overflows,
less write-time penalty).  This example

1. sweeps Rspace over the supported interval [1.1, 1.43] on a simulated
   256-process Summit run and prints the overhead trade-off curve,
2. shows the weight-based shortcut (`PipelineConfig.from_weight`) that maps
   a single performance-vs-storage preference onto the interval,
3. streams one real time-step series at the ceilings 1.1 / 1.25 / 1.43:
   warm steps size each slot from the miss last observed on its field and
   rank (closed-loop extra space), so the configured Rspace is a ceiling
   and the stored bytes sit near the 1.1 floor's, one summary row each.

Run:  python examples/tuning_extra_space.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.core import PipelineConfig, build_workload, simulate_strategy
from repro.core.config import extra_space_for_weight
from repro.core.session import step_group
from repro.core.workload import scale_workload
from repro.data.timesteps import TimestepSeries
from repro.hdf5 import File as EngineFile
from repro.sim import SUMMIT

#: The streamed series: a (24, 24, 24) Nyx-like field set over 4 ranks; from
#: step JUMP on the first field turns to noise, so its warm prediction misses.
SHAPE, NRANKS, NAMES, N_STEPS, JUMP = (24, 24, 24), 4, ("baryon_density", "temperature"), 8, 5


def stream_series(rspace: float, workdir: str) -> dict:
    """Stream the series at ceiling ``rspace``; one summary of the file."""
    series = TimestepSeries(SHAPE, n_steps=N_STEPS, seed=7)
    gen0 = series.snapshot_generator(0)
    noise = np.random.default_rng(7).normal(0.0, 1.0, SHAPE).astype(np.float32)
    steps = []
    for t in range(N_STEPS):
        gen = series.snapshot_generator(t)
        snap = {n: gen.field(n) for n in NAMES}
        if t >= JUMP:
            snap[NAMES[0]] = np.roll(noise, t, axis=0) * np.float32(snap[NAMES[0]].std())
        steps.append(snap)
    path = os.path.join(workdir, f"series-{rspace:.2f}.phd5")
    config = PipelineConfig(extra_space_ratio=rspace)
    with repro.open(path, "w", nranks=NRANKS, config=config) as f:
        for n in NAMES:
            f.create_dataset(n, SHAPE, np.float32, maxshape=(None,) + SHAPE,
                             error_bound=gen0.error_bound(n))
        results = [f.append_step(snap) for snap in steps]
    warm_ratios, overflowed = [], 0
    with EngineFile(path, "r") as ef:
        for res in results:
            for n in NAMES:
                ds = ef[f"{step_group(res.step)}/{n}"]
                for rank, stats in enumerate(res.stats):
                    overflowed += stats.overflow_nbytes[n] > 0
                    if res.warm_started:
                        warm_ratios.append(ds.partition(rank).reserved / stats.predicted_nbytes[n])
    with repro.open(path) as f:  # every step reads back within its bound
        for t, snap in enumerate(steps):
            for n, ref in snap.items():
                err = float(np.max(np.abs(f[n][t].astype(np.float64) - ref)))
                assert err <= gen0.error_bound(n) * (1 + 1e-6), (rspace, t, n, err)
    user = sum(a.nbytes for snap in steps for a in snap.values())
    return {
        "stored": os.path.getsize(path) / user,
        "overflowed": overflowed,
        "warm_ratio": float(np.mean(warm_ratios)),
    }


def main() -> None:
    wl = build_workload(
        "nyx", nranks=8, shape=(64, 64, 64), seed=5,
        bound_scale=4.0,  # ~bit-rate 2, the paper's operating point
        include_particles=True,
    )
    wl = scale_workload(wl, nranks=256, values_per_partition=256**3)
    print("workload: 256 simulated Summit processes, 9 fields, "
          f"ratio {wl.overall_ratio:.1f}x (bit-rate {wl.overall_bit_rate:.2f})\n")

    print(f"{'Rspace':>7s} {'write overhead':>15s} {'storage overhead':>17s} "
          f"{'overflowing partitions':>23s}")
    for rspace in (1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.43):
        config = PipelineConfig(extra_space_ratio=rspace)
        res = simulate_strategy("reorder", wl, SUMMIT, config)
        ref = simulate_strategy("reorder", wl, SUMMIT, config, handle_overflow=False)
        perf = max(0.0, (res.write_seconds - ref.write_seconds) / ref.write_seconds)
        frac = res.n_overflow_partitions / (res.nranks * res.nfields)
        print(f"{rspace:7.2f} {perf:14.1%} {res.storage_overhead_vs_ideal:16.1%} "
              f"{frac:22.1%}")

    print("\nweight-based shortcut (performance weight -> Rspace):")
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  weight {w:.2f} -> Rspace {extra_space_for_weight(w):.3f}")
    print("\nPipelineConfig.from_weight(0.5) ->",
          PipelineConfig.from_weight(0.5).extra_space_ratio)

    print(f"\nstreamed series: {N_STEPS} steps of {SHAPE} x {len(NAMES)} fields over "
          f"{NRANKS} ranks, field {NAMES[0]!r} turns to noise at step {JUMP}")
    print(f"{'ceiling':>8s} {'stored fraction':>16s} {'overflowed partitions':>22s} "
          f"{'mean warm-slot ratio':>21s}")
    with tempfile.TemporaryDirectory() as workdir:
        for rspace in (1.1, 1.25, 1.43):
            row = stream_series(rspace, workdir)
            print(f"{rspace:8.2f} {row['stored']:16.4f} {row['overflowed']:22d} "
                  f"{row['warm_ratio']:21.3f}")
    print("verified: every step of every series read back within its error bound")


if __name__ == "__main__":
    main()
