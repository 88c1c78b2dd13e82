"""Time-evolving snapshot series (paper Fig. 15).

Fig. 15 applies the fixed extra-space ratio 1.25 across a series of Nyx
time-steps (decreasing redshift) and shows the storage/performance overheads
stay consistent.  What that experiment needs from the data is a sequence of
snapshots whose *compressibility drifts slowly but monotonically* — later
cosmic times have more collapsed structure (heavier density tails).

:class:`TimestepSeries` produces exactly that: each step re-generates the
snapshot with frozen spectral phases and a growth factor increasing with
step, so fields evolve smoothly instead of being independent draws.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.nyx import NYX_ABS_ERROR_BOUNDS, NYX_FIELDS, NyxGenerator


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

    #: Field names every snapshot of the series provides (grid fields only).
    field_names = NYX_FIELDS

    def error_bound(self, name: str) -> float:
        """The absolute error bound of one field (the same at every step)."""
        return NYX_ABS_ERROR_BOUNDS[name]

    def __len__(self) -> int:
        return self.n_steps

    def __iter__(self):
        for step in range(self.n_steps):
            yield self.snapshot_generator(step)


class ArraySnapshot:
    """One step of an :class:`ArraySeries`: user arrays behind the same
    generator protocol :class:`~repro.data.nyx.NyxGenerator` speaks
    (``field_names`` / ``field`` / ``error_bound``)."""

    def __init__(self, fields: dict[str, np.ndarray], bounds: dict[str, float]) -> None:
        self._fields = dict(fields)
        self._bounds = dict(bounds)

    @property
    def field_names(self) -> tuple[str, ...]:
        """Field names in insertion order."""
        return tuple(self._fields)

    def field(self, name: str) -> np.ndarray:
        """The step's array for one field."""
        return self._fields[name]

    def error_bound(self, name: str) -> float:
        """The absolute error bound declared for one field."""
        return self._bounds[name]


class ArraySeries:
    """A snapshot series fed by the caller instead of a generator.

    :class:`TimestepSeries` regenerates snapshots deterministically from a
    seed; :class:`ArraySeries` is the push-model counterpart the facade's
    ``File.append_step`` uses — the application hands over each step's
    arrays (pushed through ``TimestepSession.write_arrays``), and every
    step that landed is appended here, so the retained snapshots double
    as the reference data for close-time certification.
    """

    def __init__(
        self,
        shape: Sequence[int],
        field_names: Sequence[str],
        bounds: dict[str, float],
    ) -> None:
        if not field_names:
            raise ValueError("at least one field name is required")
        self.shape = tuple(int(s) for s in shape)
        self.field_names = tuple(field_names)
        self.bounds = dict(bounds)
        missing = set(self.field_names) - set(self.bounds)
        if missing:
            raise ValueError(f"missing error bounds for {sorted(missing)}")
        self._steps: list[ArraySnapshot] = []

    def append(self, fields: dict[str, np.ndarray]) -> int:
        """Append one step's arrays; returns the new step index."""
        if set(fields) != set(self.field_names):
            raise ValueError(
                f"step fields {sorted(fields)} != series fields "
                f"{sorted(self.field_names)}"
            )
        for name, arr in fields.items():
            if tuple(arr.shape) != self.shape:
                raise ValueError(
                    f"field {name!r} shape {tuple(arr.shape)} != series shape "
                    f"{self.shape}"
                )
        ordered = {name: np.asarray(fields[name]) for name in self.field_names}
        self._steps.append(ArraySnapshot(ordered, self.bounds))
        return len(self._steps) - 1

    def error_bound(self, name: str) -> float:
        """The absolute error bound declared for one field."""
        return self.bounds[name]

    def snapshot_generator(self, step: int) -> ArraySnapshot:
        """The retained snapshot for one appended step."""
        if not 0 <= step < len(self._steps):
            raise IndexError(f"step {step} out of range [0, {len(self._steps)})")
        return self._steps[step]

    def __len__(self) -> int:
        return len(self._steps)
