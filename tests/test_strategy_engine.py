"""The strategy table + sim/real parity for each of the four strategies.

The engine's contract: a strategy is defined once (phases in
``repro.core.strategy``) and executed by two drivers — the simulator and
the real thread-rank pipeline.  Parity means both worlds agree on the
per-rank predicted/actual/overflow byte counts for the same data, codecs,
and configuration, because they share the exact same phase math.
"""

import numpy as np
import pytest

import repro
from repro.compression import SZCompressor
from repro.core import (
    STRATEGIES,
    AutoTuner,
    PipelineConfig,
    RealDriver,
    SimDriver,
    WriteStrategy,
    field_index_map,
    get_scenario,
    get_strategy,
    simulate_strategy,
    workload_from_arrays,
)
from repro.core.strategy import PlanPhase
from repro.data import NyxGenerator
from repro.data.partition import slab_partition
from repro.errors import ConfigError, UnknownStrategyError
from repro.hdf5 import File, FileAccessProps
from repro.mpi import run_spmd
from repro.sim.machine import BEBOP

SHAPE = (24, 16, 16)
NRANKS = 4
FIELDS = ("baryon_density", "temperature", "velocity_x")


class TestRegistry:
    """The closed table of the paper's four Fig. 4 strategies."""

    def test_paper_strategies_registered(self):
        assert set(STRATEGIES) == {"nocomp", "filter", "overlap", "reorder"}

    def test_paper_presentation_order(self):
        assert tuple(STRATEGIES) == ("nocomp", "filter", "overlap", "reorder")

    def test_get_strategy_instances(self):
        for name in STRATEGIES:
            strat = get_strategy(name)
            assert strat is STRATEGIES[name]
            assert isinstance(strat, WriteStrategy)
            assert strat.name == name

    def test_phase_composition(self):
        """Each table value pins (compresses, predictive, reorder) and all
        of its phase fields."""
        table = {
            # name: (compresses, predictive, reorder), predict, plan, overlap, overflow
            "nocomp": ((False, False, False), False, None, False, False),
            "filter": ((True, False, False), False, ("actual", False), False, False),
            "overlap": ((True, True, False), True, ("predicted", True), True, True),
            "reorder": ((True, True, True), True, ("predicted", True), True, True),
        }
        for name, (flags, predict, plan, overlap, overflow) in table.items():
            strat = STRATEGIES[name]
            assert (strat.compresses, strat.predictive, strat.compress_write.reorder) == flags
            assert strat.predict.enabled is predict
            plan_fields = strat.plan and (strat.plan.source, strat.plan.extra_space)
            assert plan_fields == plan
            assert strat.compress_write.overlap is overlap
            assert strat.overflow.enabled is overflow

    def test_unknown_strategy_raises(self):
        with pytest.raises(UnknownStrategyError):
            get_strategy("does-not-exist")

    def test_plan_phase_validates_source(self):
        with pytest.raises(ConfigError):
            PlanPhase(source="psychic")

    def test_drivers_validate_unregistered_instances(self):
        """Entry points take a strategy *name*: a strategy value, even one
        from the table, is refused, so no unchecked combination gets in."""
        strat = STRATEGIES["reorder"]
        with pytest.raises(UnknownStrategyError):
            RealDriver(strat)
        with pytest.raises(UnknownStrategyError):
            SimDriver(BEBOP).run(strat, None)

    def test_field_index_map(self):
        names = ["c", "a", "b"]
        index = field_index_map(names)
        assert [index[n] for n in names] == [0, 1, 2]


def _create_dataset(path, strategy):
    with repro.open(path, "w") as f:
        f.create_dataset("x", (8, 8), error_bound=1e-3, strategy=strategy)


#: Every public way to name a strategy: (path, workload, name) -> call.
ENTRY_POINTS = {
    "RealDriver": lambda path, wl, name: RealDriver(name),
    "SimDriver.run": lambda path, wl, name: SimDriver(BEBOP).run(name, wl),
    "AutoTuner.estimate": lambda path, wl, name: AutoTuner(BEBOP).estimate(name, wl),
    "repro.open": lambda path, wl, name: repro.open(path, "w", strategy=name).close(),
    "create_dataset": lambda path, wl, name: _create_dataset(path, name),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_unknown_strategy_is_one_error(entry, tmp_path):
    """Every entry point refuses an unknown name with the same error."""
    wl = get_scenario("balanced").workload(seed=0)
    with pytest.raises(UnknownStrategyError):
        ENTRY_POINTS[entry](str(tmp_path / "u.phd5"), wl, "bogus")


def _setup(seed=31, bound_scale=1.0):
    gen = NyxGenerator(SHAPE, seed=seed)
    parts = slab_partition(SHAPE, NRANKS)
    codecs = {
        n: SZCompressor(bound=gen.error_bound(n) * bound_scale, mode="abs")
        for n in FIELDS
    }
    payload = []
    for p in parts:
        local = {n: np.ascontiguousarray(p.extract(gen.field(n))) for n in FIELDS}
        region = [[s.start, s.stop] for s in p.slices]
        payload.append((local, region))
    return gen, codecs, payload


def _run_real(path, strategy, payload, codecs, config=None):
    f = File(str(path), "w", fapl=FileAccessProps(async_io=True, async_workers=2))
    driver = RealDriver(strategy, config=config)

    def rank_fn(comm):
        local, region = payload[comm.rank]
        return driver.run(comm, f, local, region, SHAPE, codecs)

    stats = run_spmd(NRANKS, rank_fn)
    f.close()
    return stats


class TestSimRealParity:
    """Per-rank byte-count agreement between the two worlds."""

    @pytest.fixture(scope="class")
    def setup(self):
        gen, codecs, payload = _setup()
        wl = workload_from_arrays([p[0] for p in payload], codecs)
        return gen, codecs, payload, wl

    @pytest.mark.parametrize("strategy", ["nocomp", "filter", "overlap", "reorder"])
    def test_byte_count_parity(self, setup, strategy, tmp_path):
        gen, codecs, payload, wl = setup
        config = PipelineConfig()
        stats = _run_real(tmp_path / f"{strategy}.phd5", strategy, payload, codecs, config)
        sim = simulate_strategy(strategy, wl, BEBOP, config)
        names = list(FIELDS)
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

    def test_reorder_field_order_parity(self, setup, tmp_path):
        """Algorithm 1 sees identical task costs in both worlds, so each
        rank compresses its fields in the same order in both; the
        strategy name alone decides whether the order is optimized."""
        gen, codecs, payload, wl = setup
        from repro.core.strategy import predict_phase_costs
        from repro.core.writers import default_models

        tmodel, wmodel = default_models(BEBOP, NRANKS)
        names = list(FIELDS)
        nv = wl.matrix("n_values")
        pr = wl.matrix("predicted_nbytes")
        for strategy in ("overlap", "reorder"):
            stats = _run_real(tmp_path / f"{strategy}.phd5", strategy, payload, codecs)
            sim = SimDriver(BEBOP).run(strategy, wl)
            records = sorted(sim.trace.records, key=lambda rec: rec.start)
            cw = get_strategy(strategy).compress_write
            for r, s in enumerate(stats):
                sim_order = [
                    rec.label for rec in records if rec.rank == r and rec.kind == "compress"
                ]
                assert s.order == sim_order, (strategy, r)
                compress_s, write_s = predict_phase_costs(tmodel, wmodel, nv[:, r], pr[:, r])
                assert s.order == cw.field_order(names, compress_s, write_s)
                if strategy == "overlap":
                    assert s.order == names

    def test_order_is_decided_by_the_strategy_name_alone(self):
        """No configuration switch can turn Algorithm 1 off behind the
        strategy's back, locally or over the wire."""
        from dataclasses import fields

        from repro.serve.coalescer import config_from_wire
        from repro.serve.protocol import ServeError

        assert "reorder" not in {f.name for f in fields(PipelineConfig)}
        with pytest.raises(ServeError):
            config_from_wire({"reorder": False})

    def test_overflow_parity_under_pressure(self, tmp_path):
        """At Rspace=1.1 with weak prediction accuracy, both worlds must
        still agree partition-by-partition on the overflow tails."""
        gen, codecs, payload = _setup(seed=41, bound_scale=50.0)
        wl = workload_from_arrays([p[0] for p in payload], codecs)
        config = PipelineConfig(extra_space_ratio=1.1)
        stats = _run_real(tmp_path / "pressure.phd5", "overlap", payload, codecs, config)
        sim = simulate_strategy("overlap", wl, BEBOP, config)
        names = list(FIELDS)
        for r, s in enumerate(stats):
            for f, name in enumerate(names):
                assert s.overflow_nbytes[name] == sim.overflow_plan.tail_nbytes[f, r]

    def test_real_file_reads_back_within_bounds(self, setup, tmp_path):
        gen, codecs, payload, wl = setup
        path = tmp_path / "roundtrip.phd5"
        _run_real(path, "reorder", payload, codecs)
        with File(str(path), "r") as f:
            for name in FIELDS:
                out = f[f"fields/{name}"].read()
                bound = codecs[name].quantizer.requested_bound
                err = np.max(np.abs(out.astype(np.float64) - gen.field(name)))
                assert err <= bound * (1 + 1e-6), name
