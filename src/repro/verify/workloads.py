"""Shared write-side harness for the verification pillars.

Certification, the scenario fuzzer and, through the certification cells,
strategy, read-route and serve parity all need the same primitive: take
one scenario's real-array payload, push it through a write strategy, and
land a finished PHD5 file on disk.  Centralizing it keeps every pillar
exercising the *production* write path — the :mod:`repro.api` facade's
collective flush, the one write the daemon commit and ``append_step``
also end in — not a test-only shortcut.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EXTRA_SPACE_MIN, PipelineConfig
from repro.core.scenarios import ScenarioArrays, get_scenario


def scenario_config(scenario_name: str) -> PipelineConfig:
    """Per-scenario pipeline config for the certification matrices.

    Overflow-pressure regimes run at the tightest supported extra-space
    ratio so slots genuinely overflow and the certified read path has to
    reassemble tails.
    """
    sc = get_scenario(scenario_name)
    if sc.overflow_pressure:
        return PipelineConfig(extra_space_ratio=EXTRA_SPACE_MIN)
    return PipelineConfig()


def write_scenario_file(
    arrays: ScenarioArrays,
    strategy: str,
    path: str,
    config: PipelineConfig | None = None,
    dtype: "np.dtype | None" = None,
) -> None:
    """Write one scenario payload through the :mod:`repro.api` facade.

    The per-rank blocks land via plain ``ds[region] = block`` assignments
    under a ``fields/`` group, so the per-rank payload regions become the
    SPMD decomposition of the facade's collective flush.  ``dtype``
    optionally casts the payload (the fuzzer sweeps float64).
    """
    from repro import api

    dt = None if dtype is None else np.dtype(dtype)
    with api.open(path, "w", strategy=strategy, config=config) as f:
        datasets = {
            name: f.create_dataset(
                f"fields/{name}",
                arrays.shape,
                dt or arr.dtype,
                error_bound=arrays.scenario.array_bound,
            )
            for name, arr in arrays.fields.items()
        }
        for local, region in arrays.payload:
            key = tuple(slice(a, b) for a, b in region)
            for name, block in local.items():
                datasets[name][key] = block if dt is None else block.astype(dt)


def reference_fields(
    arrays: ScenarioArrays, dtype: "np.dtype | None" = None
) -> dict[str, np.ndarray]:
    """The global reference arrays certification compares against."""
    if dtype is None:
        return dict(arrays.fields)
    dt = np.dtype(dtype)
    return {n: np.asarray(a, dtype=dt) for n, a in arrays.fields.items()}
