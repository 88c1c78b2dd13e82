#!/usr/bin/env python
"""Streaming a time-step series through the facade's unlimited axis.

The paper's Fig. 15 scenario as plain dataset calls: create each field
with ``maxshape=(None, *shape)`` and every ``f.append_step(...)`` streams
one snapshot as one collective write — step 0 plans cold
(sampling-based size prediction + Algorithm 1 ordering); every later step
warm-starts both phases from the previous step's *measured* sizes, while
the extra space / overflow machinery still guarantees bounded read-back.

Run:  python examples/timestep_streaming.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.data.timesteps import TimestepSeries
from repro.tools.inspect import main as repro_inspect


def main() -> None:
    shape = (32, 32, 32)
    n_steps = 5
    names = ["baryon_density", "temperature", "velocity_x"]
    series = TimestepSeries(shape, n_steps=n_steps, seed=42)
    gen0 = series.snapshot_generator(0)
    path = os.path.join(tempfile.mkdtemp(), "series.phd5")

    print(f"streaming {n_steps} steps of a {shape} Nyx series -> {path}\n")
    with repro.open(path, "w", nranks=4,
                    config=repro.PipelineConfig(extra_space_ratio=1.25)) as f:
        for n in names:
            f.create_dataset(n, shape, np.float32, maxshape=(None,) + shape,
                             error_bound=gen0.error_bound(n))
        print(f"{'step':>4} {'mode':>5} {'seconds':>8} {'pred err':>9} {'overflow':>9}")
        results = []
        for step in range(n_steps):
            gen = series.snapshot_generator(step)
            res = f.append_step({n: gen.field(n) for n in names})
            results.append(res)
            mode = "warm" if res.warm_started else "cold"
            print(f"{res.step:>4} {mode:>5} {res.seconds:>8.3f}"
                  f" {res.prediction_error:>+9.1%} {res.overflow_nbytes:>8}B")
        cold = results[0].seconds
        warm = float(np.mean([r.seconds for r in results[1:]]))
        print("\nwarm steps skip the sampling + reorder planning:"
              f" {cold:.3f}s cold vs {warm:.3f}s warm ({cold / warm:.1f}x)")
        assert f["baryon_density"].shape == (n_steps,) + shape

    # The file persists: every step of every field reads back in bounds.
    with repro.open(path) as f:
        check = TimestepSeries(shape, n_steps=n_steps, seed=42)
        worst = 0.0
        for step in range(n_steps):
            gen = check.snapshot_generator(step)
            for name in names:
                out = f[name][step]
                bound = gen.error_bound(name)
                err = float(np.max(np.abs(out.astype(np.float64) - gen.field(name))))
                assert err <= bound * (1 + 1e-6), (step, name)
                worst = max(worst, err / bound)
        print(f"verified: {n_steps} steps x {len(names)} fields read back within "
              f"bounds (worst error at {worst:.0%} of bound)")
        print(f"file size: {os.path.getsize(path)} bytes")
    print()
    repro_inspect(["summary", path])  # what `repro inspect summary` prints


if __name__ == "__main__":
    main()
