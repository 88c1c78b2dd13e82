"""Sim/real parity across every registered strategy × every scenario.

The strategy engine's contract is that one phase composition executes
identically (byte-wise) in both worlds.  The strategy-engine tests prove
it for one hand-built payload; this sweep proves it for every *generated
regime* — skewed fields, imbalanced ranks, incompressible noise,
overflow pressure — per-rank predicted/actual/overflow byte counts must
agree between :class:`SimDriver` and :class:`RealDriver` in every cell.

Marked ``slow``: each cell really compresses its arrays and runs the
thread-rank driver, so the full matrix belongs to the nightly tier.
"""

import pytest

from repro.core import (
    PipelineConfig,
    RealDriver,
    simulate_strategy,
    workload_from_arrays,
)
from repro.core.scenarios import get_scenario, scenario_names
from repro.hdf5 import File, FileAccessProps
from repro.mpi import run_spmd
from repro.sim.machine import BEBOP

STRATEGIES = ("nocomp", "filter", "overlap", "reorder")

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def realized():
    """Per-scenario cache: (arrays, measured workload, config)."""
    cache = {}

    def _get(name):
        if name not in cache:
            sc = get_scenario(name)
            arrays = sc.array_payload(seed=0)
            config = (
                PipelineConfig(extra_space_ratio=1.1)
                if sc.overflow_pressure
                else PipelineConfig()
            )
            wl = workload_from_arrays(
                [local for local, _ in arrays.payload],
                arrays.codecs,
                name=sc.name,
            )
            cache[name] = (arrays, wl, config)
        return cache[name]

    return _get


def _run_real(path, strategy, arrays, config):
    f = File(str(path), "w", fapl=FileAccessProps(async_io=True, async_workers=2))
    driver = RealDriver(strategy, config=config)

    def rank_fn(comm):
        local, region = arrays.payload[comm.rank]
        return driver.run(
            comm, f, local, region, arrays.shape, arrays.codecs
        )

    try:
        return run_spmd(arrays.nranks, rank_fn)
    finally:
        f.close()


@pytest.mark.parametrize("scenario", scenario_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_per_rank_byte_parity(realized, scenario, strategy, tmp_path):
    arrays, wl, config = realized(scenario)
    stats = _run_real(tmp_path / f"{scenario}-{strategy}.phd5", strategy, arrays, config)
    sim = simulate_strategy(strategy, wl, BEBOP, config)
    names = list(arrays.fields)
    actual = wl.matrix("actual_nbytes")
    predicted = wl.matrix("predicted_nbytes")
    original = wl.matrix("original_nbytes")
    for r, s in enumerate(stats):
        for f, name in enumerate(names):
            if strategy == "nocomp":
                assert s.actual_nbytes[name] == original[f, r]
                assert s.predicted_nbytes[name] == original[f, r]
            else:
                assert s.actual_nbytes[name] == actual[f, r]
            if strategy in ("overlap", "reorder"):
                assert s.predicted_nbytes[name] == predicted[f, r]
                assert s.overflow_nbytes[name] == sim.overflow_plan.tail_nbytes[f, r]
            else:
                assert s.overflow_nbytes[name] == 0
    if strategy in ("overlap", "reorder"):
        assert sum(s.total_overflow for s in stats) == sim.overflow_nbytes


def test_overflow_pressure_scenario_exercises_tails(realized):
    """The sweep is only meaningful if at least one regime really routes
    traffic through the overflow repair phase."""
    arrays, wl, config = realized("overflow-stress")
    sim = simulate_strategy("overlap", wl, BEBOP, config)
    assert sim.overflow_nbytes > 0
