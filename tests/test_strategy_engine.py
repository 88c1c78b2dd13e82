"""The strategy table, its phase programs, and sim/real parity for each
of the four strategies.

The engine's contract: a strategy is defined once (phases and the phase
program in ``repro.core.strategy``) and read by three interpreters — the
simulator schedules the program, the tuner sums it, the real thread-rank
pipeline runs it.  The interpreters see the same segments and the same
per-rank compression order, and the simulator and the real run agree on
the per-rank predicted/actual/overflow byte counts for the same data,
codecs, and configuration, because they share the exact same phase math.
"""

import threading
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.compression import SZCompressor
from repro.core import (
    STRATEGIES,
    AutoTuner,
    PipelineConfig,
    RealDriver,
    WriteStrategy,
    field_index_map,
    get_scenario,
    get_strategy,
    simulate_strategy,
    workload_from_arrays,
)
from repro.core.strategy import PlanPhase, rank_order
from repro.core.writers import default_models
from repro.data import NyxGenerator
from repro.data.partition import slab_partition
from repro.errors import ConfigError, UnknownStrategyError
from repro.hdf5 import File, FileAccessProps
from repro.hdf5.dataset import Dataset
from repro.modeling.ratio_model import RatioQualityModel
from repro.mpi import run_spmd
from repro.mpi.comm import RankComm
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
            # name: (compresses, predictive, reorder), predict, plan, overflow
            "nocomp": ((False, False, False), False, None, False),
            "filter": ((True, False, False), False, ("actual", False), False),
            "overlap": ((True, True, False), True, ("predicted", True), True),
            "reorder": ((True, True, True), True, ("predicted", True), True),
        }
        for name, (flags, predict, plan, overflow) in table.items():
            strat = STRATEGIES[name]
            assert (strat.compresses, strat.predictive, strat.compress_write.reorder) == flags
            assert strat.predict.enabled is predict
            plan_fields = strat.plan and (strat.plan.source, strat.plan.extra_space)
            assert plan_fields == plan
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
            simulate_strategy(strat, None, BEBOP)

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
    "simulate_strategy": lambda path, wl, name: simulate_strategy(name, wl, BEBOP),
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

        tmodel, wmodel = default_models(BEBOP, NRANKS)
        names = list(FIELDS)
        nv = wl.matrix("n_values")
        pr = wl.matrix("predicted_nbytes")
        for strategy in ("overlap", "reorder"):
            stats = _run_real(tmp_path / f"{strategy}.phd5", strategy, payload, codecs)
            sim = simulate_strategy(strategy, wl, BEBOP)
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


def _segments(events):
    """Per-rank phase kinds between all-gathers: ``(rank, kind)`` events in
    the order each rank met them -> ``{rank: [set, ...]}``."""
    out = defaultdict(lambda: [set()])
    for rank, kind in events:
        if kind == "allgather":
            out[rank].append(set())
        else:
            out[rank][-1].add(kind)
    return out


class _PhaseSpy:
    """What a real run does, per rank and in order: the all-gathers, the
    predictor, the codec's compressions and the partition writes."""

    def __init__(self, monkeypatch, payload):
        self.events: list[tuple[int, str]] = []
        self.order = defaultdict(list)
        self._lock = threading.Lock()
        owner = {
            id(arr): (r, name)
            for r, (local, _) in enumerate(payload)
            for name, arr in local.items()
        }

        def spy(cls, method, kind, rank_of):
            original = getattr(cls, method)

            def wrapper(obj, *args, **kwargs):
                rank = rank_of(obj, *args)
                if rank is not None:
                    with self._lock:
                        self.events.append((rank, kind))
                return original(obj, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        def compressed(codec, data, *args):
            if id(data) not in owner:
                return None
            rank, name = owner[id(data)]
            with self._lock:
                self.order[rank].append(name)
            return rank

        def array_rank(obj, data, *args):
            return owner[id(data)][0] if id(data) in owner else None

        spy(RankComm, "allgather", "allgather", lambda comm, *args: comm.rank)
        spy(RatioQualityModel, "predict", "predict", array_rank)
        spy(SZCompressor, "compress", "compress", compressed)
        spy(Dataset, "write_partition", "write", lambda ds, index, *args: index)
        spy(Dataset, "write_slab", "write", array_rank)
        spy(Dataset, "write_partition_overflow", "overflow", lambda ds, index, *args: index)


class TestOneProgram:
    """The simulator, a real run and the tuner follow each strategy's phase
    program segment by segment, and compress in the same per-rank order.

    The payload overflows every partition (Rspace 1.1 at a loose bound), so
    every segment of every program has work on every rank.
    """

    CONFIG = PipelineConfig(extra_space_ratio=1.1)

    @pytest.fixture(scope="class")
    def setup(self):
        gen, codecs, payload = _setup(seed=41, bound_scale=50.0)
        return codecs, payload, workload_from_arrays([p[0] for p in payload], codecs)

    @pytest.mark.parametrize(
        "strategy, warm",
        [("nocomp", False), ("filter", False), ("overlap", False), ("reorder", False),
         ("reorder", True)],
    )
    def test_three_interpreters_one_program(self, setup, strategy, warm, tmp_path, monkeypatch):
        codecs, payload, wl = setup
        strat = get_strategy(strategy)
        program = list(strat.program(warm_start=warm))
        nv, predicted = wl.matrix("n_values"), wl.matrix("predicted_nbytes")
        models = default_models(BEBOP, NRANKS)
        orders = [
            [FIELDS[f] for f in rank_order(strat, models, nv[:, r], predicted[:, r])]
            if strat.compresses else []
            for r in range(NRANKS)
        ]

        # The simulator's trace, records grouped between allgather records.
        if not warm:
            sim = simulate_strategy(strategy, wl, BEBOP, self.CONFIG)
            sim_segments = _segments((rec.rank, rec.kind) for rec in sim.trace.records)
            for r in range(NRANKS):
                assert sim_segments[r] == program, (strategy, r)
                assert [
                    rec.label for rec in sim.trace.records
                    if rec.rank == r and rec.kind == "compress"
                ] == orders[r]

        # A real run on thread ranks; a warm start carries the sizes the
        # predictor would have produced.
        hints = None
        if warm:
            hints = [
                ({name: int(predicted[f, r]) for f, name in enumerate(FIELDS)}, None)
                for r in range(NRANKS)
            ]
        spy = _PhaseSpy(monkeypatch, payload)
        with File(str(tmp_path / "one.phd5"), "w", fapl=FileAccessProps(async_io=True)) as f:
            RealDriver(strategy, config=self.CONFIG).write(f, payload, SHAPE, codecs, hints=hints)
        monkeypatch.undo()
        real_segments = _segments(spy.events)
        for r in range(NRANKS):
            assert real_segments[r] == program, (strategy, r)
            assert spy.order[r] == orders[r]

        # The tuner's breakdown is non-zero exactly on the program's kinds.
        est = AutoTuner(BEBOP, self.CONFIG).estimate(strategy, wl, warm_start=warm)
        priced = {
            kind for kind in ("predict", "compress", "write", "overflow")
            if getattr(est, f"{kind}_seconds")
        }
        assert priced == set().union(*program)
