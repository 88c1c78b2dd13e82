"""Time-evolving snapshot series (paper Fig. 15).

Fig. 15 applies the fixed extra-space ratio 1.25 across a series of Nyx
time-steps (decreasing redshift) and shows the storage/performance overheads
stay consistent.  What that experiment needs from the data is a sequence of
snapshots whose *compressibility drifts slowly but monotonically* — later
cosmic times have more collapsed structure (heavier density tails).

:class:`TimestepSeries` produces exactly that: each step re-generates the
snapshot with frozen spectral phases and a growth factor increasing with
step, so fields evolve smoothly instead of being independent draws.  A
step's fields and their error bounds are its
:class:`~repro.data.nyx.NyxGenerator`'s; stream them with
``repro.open(...).append_step``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.nyx import NyxGenerator


class TimestepSeries:
    """Series of correlated Nyx snapshots at increasing structure growth.

    Parameters
    ----------
    shape:
        Grid resolution per snapshot.
    n_steps:
        Number of snapshots in the series.
    seed:
        Master seed (shared across steps — phases are frozen; only the
        growth factor changes).
    redshifts:
        Optional explicit redshift labels, highest (earliest) first, length
        ``n_steps``.  Defaults to a uniform sweep from z=4 down to z=0.
    """

    def __init__(
        self,
        shape: Sequence[int] = (64, 64, 64),
        n_steps: int = 5,
        seed: int | None = None,
        redshifts: Sequence[float] | None = None,
    ) -> None:
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.shape = tuple(int(s) for s in shape)
        self.n_steps = int(n_steps)
        self.seed = seed
        if redshifts is None:
            redshifts = np.linspace(4.0, 0.0, n_steps)
        if len(redshifts) != n_steps:
            raise ValueError("redshifts length must equal n_steps")
        self.redshifts = tuple(float(z) for z in redshifts)

    def growth_factor(self, step: int) -> float:
        """Structure-growth factor for a step (grows as redshift falls)."""
        z = self.redshifts[step]
        return 1.0 / (1.0 + 0.35 * z)

    def snapshot_generator(self, step: int) -> NyxGenerator:
        """The :class:`NyxGenerator` for the given step."""
        if not 0 <= step < self.n_steps:
            raise IndexError(f"step {step} out of range [0, {self.n_steps})")
        return NyxGenerator(self.shape, seed=self.seed, growth=self.growth_factor(step))

    def snapshot(self, step: int) -> dict[str, np.ndarray]:
        """All fields of the step's snapshot."""
        return self.snapshot_generator(step).snapshot()

    def __len__(self) -> int:
        return self.n_steps

    def __iter__(self):
        for step in range(self.n_steps):
            yield self.snapshot_generator(step)
