#!/usr/bin/env python
"""Per-timestep strategy auto-tuning: scenarios, the tuner, and a stream.

The paper's four write strategies each win in a different regime (Fig. 10,
Fig. 16).  This example shows the adaptive layer end to end:

1. the deterministic scenario generator sweeps named workload regimes;
2. the :class:`~repro.core.autotune.AutoTuner` prices every registered
   strategy analytically and its pick is compared against an exhaustive
   simulate-everything oracle;
3. a file opened with ``repro.open(..., strategy="auto")`` streams a real
   time-step series through ``append_step``, re-tuning the strategy from
   each step's measured actual sizes.

Run:  python examples/autotune_streaming.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.core import SCENARIOS, AutoTuner, choice_regret, exhaustive_oracle
from repro.data.timesteps import TimestepSeries


def tune_over_scenarios() -> None:
    """Part 1/2: the tuner vs the exhaustive simulation oracle."""
    machine = "bebop"
    tuner = AutoTuner(machine)
    print(f"{'scenario':<18} {'tuner pick':>10} {'oracle':>8} {'regret':>8}")
    matches = 0
    for sc in SCENARIOS:
        workload = sc.workload(seed=0)
        decision = tuner.evaluate(workload)
        oracle = exhaustive_oracle(workload, machine)
        regret = choice_regret(decision.choice, workload, machine)
        ok = decision.choice == oracle or regret <= 0.01
        matches += ok
        print(
            f"{sc.name:<18} {decision.choice:>10} {oracle:>8} {regret:>7.2%}"
            f"{'' if ok else '  <-- miss'}"
        )
    print(f"\n{matches}/{len(SCENARIOS)} scenarios matched within 1% regret\n")


def stream_with_auto_strategy() -> None:
    """Part 2/2: strategy="auto" on a real streaming series."""
    shape = (24, 24, 24)
    n_steps = 5
    series = TimestepSeries(shape, n_steps=n_steps, seed=42)
    path = os.path.join(tempfile.mkdtemp(), "auto.phd5")
    fields = ["baryon_density", "temperature", "velocity_x"]

    print(f"streaming {n_steps} steps of a {shape} Nyx series with strategy='auto'")
    with repro.open(path, "w", nranks=4, strategy="auto") as f:
        gen0 = series.snapshot_generator(0)
        for n in fields:
            f.create_dataset(n, shape, np.float32, maxshape=(None,) + shape,
                             error_bound=gen0.error_bound(n))
        print(f"{'step':>4} {'ran':>8} {'mode':>5} {'next pick':>10} {'margin':>8}")
        for step in range(n_steps):
            gen = series.snapshot_generator(step)
            res = f.append_step({n: gen.field(n) for n in fields})
            mode = "warm" if res.warm_started else "cold"
            ranking = res.tuning.ranking() if res.tuning else []
            margin = (
                ranking[1].makespan_seconds / ranking[0].makespan_seconds - 1.0
                if len(ranking) > 1 and ranking[0].makespan_seconds > 0
                else 0.0
            )
            pick = res.tuning.choice if res.tuning else "-"
            print(f"{res.step:>4} {res.strategy:>8} {mode:>5} {pick:>10} {margin:>7.1%}")
        # The decisions come from the modeled machine (bebop): tiny demo
        # partitions are latency-dominated, which a collective amortizes.
        print("\nfinal per-strategy estimates (modeled seconds on bebop):")
        for est in res.tuning.ranking():
            print(f"  {est.strategy:<8} {est.makespan_seconds:8.4f}s"
                  f"  (overflow {est.overflow_nbytes}B)")
        out = {n: f[n][n_steps - 1] for n in fields}
    print(f"\nread back step {n_steps - 1}: "
          f"{ {k: v.shape for k, v in out.items()} } — file persists at {path}")


if __name__ == "__main__":
    tune_over_scenarios()
    stream_with_auto_strategy()
