"""Shared write-side harness for the verification pillars.

Certification, differential parity, and the scenario fuzzer all need the
same primitive: take one scenario's real-array payload, push it through a
write strategy on some executor backend, and land a finished PHD5
file on disk.  Centralizing it keeps the three pillars exercising the
*production* write path (``RealDriver.write``: SPMD ranks + async VOL),
not a test-only shortcut.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EXTRA_SPACE_MIN, PipelineConfig
from repro.core.pipeline import RankWriteStats, RealDriver
from repro.core.scenarios import ScenarioArrays, get_scenario
from repro.exec import Executor
from repro.hdf5.file import File
from repro.hdf5.properties import FileAccessProps


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
    executor: "Executor | str | None" = None,
    dtype: "np.dtype | None" = None,
) -> list[RankWriteStats]:
    """Write one scenario payload through a strategy into ``path``.

    ``dtype`` optionally casts the payload (the fuzzer sweeps float64);
    the returned per-rank stats expose predicted/actual/overflow bytes.
    """
    driver = RealDriver(strategy, config=config, executor=executor)
    codecs = arrays.codecs if driver.strategy.compresses else None
    payload = arrays.payload
    if dtype is not None:
        dt = np.dtype(dtype)
        payload = [
            ({n: np.ascontiguousarray(a, dtype=dt) for n, a in local.items()}, region)
            for local, region in payload
        ]
    with File(path, "w", fapl=FileAccessProps(async_io=True, async_workers=2)) as f:
        return driver.write(f, payload, arrays.shape, codecs)


def write_scenario_file_facade(
    arrays: ScenarioArrays,
    strategy: str,
    path: str,
    config: PipelineConfig | None = None,
    executor: "Executor | str | None" = None,
) -> None:
    """Write one scenario payload through the :mod:`repro.api` facade.

    The facade counterpart of :func:`write_scenario_file`: the same
    per-rank blocks land via plain ``ds[region] = block`` assignments
    under a ``fields/`` group, so the resulting file certifies against the
    same references as a driver-written one.  The per-rank payload regions
    become the SPMD decomposition, exercising the facade's staged-tiling
    collective flush rather than a test-only shortcut.
    """
    from repro import api

    f = api.open(path, "w", strategy=strategy, executor=executor, config=config)
    try:
        datasets = {
            name: f.create_dataset(
                f"fields/{name}",
                arrays.shape,
                arr.dtype,
                error_bound=arrays.scenario.array_bound,
            )
            for name, arr in arrays.fields.items()
        }
        for local, region in arrays.payload:
            key = tuple(slice(a, b) for a, b in region)
            for name, block in local.items():
                datasets[name][key] = block
    finally:
        f.close()


def reference_fields(
    arrays: ScenarioArrays, dtype: "np.dtype | None" = None
) -> dict[str, np.ndarray]:
    """The global reference arrays certification compares against."""
    if dtype is None:
        return dict(arrays.fields)
    dt = np.dtype(dtype)
    return {n: np.asarray(a, dtype=dt) for n, a in arrays.fields.items()}
