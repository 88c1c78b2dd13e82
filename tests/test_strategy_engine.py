"""Strategy registry + sim/real parity for every registered strategy.

The engine's contract: a strategy is defined once (phases in
``repro.core.strategy``) and executed by two drivers — the simulator and
the real thread-rank pipeline.  Parity means both worlds agree on the
per-rank predicted/actual/overflow byte counts for the same data, codecs,
and configuration, because they share the exact same phase math.
"""

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.core import (
    PipelineConfig,
    RealDriver,
    SimDriver,
    WriteStrategy,
    field_index_map,
    get_strategy,
    registered_strategies,
    simulate_strategy,
    workload_from_arrays,
)
from repro.core.strategy import (
    CompressWritePhase,
    OverflowPhase,
    PlanPhase,
    PredictPhase,
    register_strategy,
)
from repro.data import NyxGenerator
from repro.data.partition import slab_partition
from repro.errors import ConfigError
from repro.hdf5 import File, FileAccessProps
from repro.mpi import run_spmd
from repro.sim.machine import BEBOP

SHAPE = (24, 16, 16)
NRANKS = 4
FIELDS = ("baryon_density", "temperature", "velocity_x")


class TestRegistry:
    def test_paper_strategies_registered(self):
        assert set(registered_strategies()) >= {"nocomp", "filter", "overlap", "reorder"}

    def test_paper_presentation_order(self):
        assert registered_strategies()[:4] == ("nocomp", "filter", "overlap", "reorder")

    def test_get_strategy_instances(self):
        for name in registered_strategies():
            strat = get_strategy(name)
            assert isinstance(strat, WriteStrategy)
            assert strat.name == name

    def test_unknown_strategy_raises(self):
        with pytest.raises(ConfigError):
            get_strategy("does-not-exist")

    def test_register_rejects_non_strategy(self):
        with pytest.raises(TypeError):
            register_strategy("bogus")(dict)

    def test_phase_composition(self):
        reorder = get_strategy("reorder")
        assert reorder.predictive and reorder.compresses
        assert reorder.predict.enabled
        assert reorder.plan.source == "predicted" and reorder.plan.extra_space
        assert reorder.compress_write.overlap and reorder.compress_write.reorder
        assert reorder.overflow.enabled
        filt = get_strategy("filter")
        assert not filt.predictive and filt.compresses
        assert filt.plan.source == "actual" and not filt.plan.extra_space
        nocomp = get_strategy("nocomp")
        assert not nocomp.compresses and nocomp.plan is None

    def test_plan_phase_validates_source(self):
        with pytest.raises(ConfigError):
            PlanPhase(source="psychic")

    def test_registration_rejects_compressing_strategy_without_plan(self):
        with pytest.raises(ConfigError, match="need a PlanPhase"):

            @register_strategy("test-invalid-noplan")
            class NoPlan(WriteStrategy):
                predict = PredictPhase(enabled=True)

        assert "test-invalid-noplan" not in registered_strategies()

    def test_registration_rejects_overlap_on_post_compression_plan(self):
        """Writes cannot overlap compression when offsets only exist after
        every stream is compressed — the paper's causality argument."""
        with pytest.raises(ConfigError, match="cannot overlap or reorder"):

            @register_strategy("test-invalid-actual-overlap")
            class ActualOverlap(WriteStrategy):
                plan = PlanPhase(source="actual", extra_space=False)
                compress_write = CompressWritePhase(compress=True, overlap=True)

    def test_registration_rejects_raw_strategy_with_unused_phases(self):
        with pytest.raises(ConfigError, match="do not apply"):

            @register_strategy("test-invalid-raw")
            class RawReorder(WriteStrategy):
                compress_write = CompressWritePhase(compress=False, reorder=True)

    def test_drivers_validate_unregistered_instances(self):
        class Broken(WriteStrategy):
            name = "broken"
            predict = PredictPhase(enabled=True)  # compress=True but plan=None

        with pytest.raises(ConfigError):
            RealDriver(Broken())
        from repro.sim.machine import BEBOP as machine

        with pytest.raises(ConfigError):
            SimDriver(machine).run(Broken(), None)

    def test_field_index_map(self):
        names = ["c", "a", "b"]
        index = field_index_map(names)
        assert [index[n] for n in names] == [0, 1, 2]

    def test_custom_strategy_runs_in_both_drivers(self, tmp_path):
        """The extension point: a new registered composition works in the
        sim and the real driver without any driver changes."""

        @register_strategy("test-eager")
        class EagerStrategy(WriteStrategy):
            predict = PredictPhase(enabled=True)
            plan = PlanPhase(source="predicted", extra_space=True)
            compress_write = CompressWritePhase(compress=True, overlap=True, reorder=False)
            overflow = OverflowPhase(enabled=True)

        try:
            gen, codecs, payload = _setup()
            wl = workload_from_arrays([p[0] for p in payload], codecs)
            sim = simulate_strategy("test-eager", wl, BEBOP)
            assert sim.strategy == "test-eager" and sim.makespan_seconds > 0
            stats = _run_real(tmp_path / "eager.phd5", "test-eager", payload, codecs)
            assert all(s.total_actual > 0 for s in stats)
        finally:
            from repro.core.strategy import _REGISTRY

            _REGISTRY.pop("test-eager", None)


class TestPhaseFlagsAreHonored:
    """Every declared phase knob must change driver behavior — a registered
    configuration that silently executes as something else is a lie."""

    def _register(self, name, **overrides):
        defaults = dict(
            predict=PredictPhase(enabled=True),
            plan=PlanPhase(source="predicted", extra_space=True),
            compress_write=CompressWritePhase(compress=True, overlap=True),
            overflow=OverflowPhase(enabled=True),
        )
        defaults.update(overrides)
        cls = type(
            f"_{name.title()}Strategy",
            (WriteStrategy,),
            defaults,
        )
        return register_strategy(name)(cls)

    def _cleanup(self, name):
        from repro.core.strategy import _REGISTRY

        _REGISTRY.pop(name, None)

    def test_predict_disabled_plans_from_raw_sizes_in_both_worlds(self, tmp_path):
        """predict.enabled=False means the plan derives from the original
        partition sizes — sim and real must agree on that too."""
        self._register("test-nosample", predict=PredictPhase(enabled=False))
        try:
            gen, codecs, payload = _setup()
            wl = workload_from_arrays([p[0] for p in payload], codecs)
            stats = _run_real(tmp_path / "ns.phd5", "test-nosample", payload, codecs)
            sim = simulate_strategy("test-nosample", wl, BEBOP)
            original = wl.matrix("original_nbytes")
            for r, s in enumerate(stats):
                for f, name in enumerate(FIELDS):
                    assert s.predicted_nbytes[name] == original[f, r]
                    assert s.overflow_nbytes[name] == sim.overflow_plan.tail_nbytes[f, r]
            # Raw sizes dwarf compressed streams: nothing can overflow, and
            # the sim plans from the same raw-size matrix.
            assert sim.overflow_nbytes == 0
            assert sim.predict_seconds == 0.0
        finally:
            self._cleanup("test-nosample")

    def test_overlap_disabled_still_writes_correct_file(self, tmp_path):
        """overlap=False runs synchronous in-place writes (NativeVOL /
        blocking sim writes) yet produces the same bytes."""
        self._register(
            "test-sync",
            compress_write=CompressWritePhase(compress=True, overlap=False),
        )
        try:
            gen, codecs, payload = _setup()
            wl = workload_from_arrays([p[0] for p in payload], codecs)
            path = tmp_path / "sync.phd5"
            _run_real(path, "test-sync", payload, codecs)
            with File(str(path), "r") as f:
                for name in FIELDS:
                    out = f[f"fields/{name}"].read()
                    bound = codecs[name].quantizer.requested_bound
                    err = np.max(np.abs(out.astype(np.float64) - gen.field(name)))
                    assert err <= bound * (1 + 1e-6), name
            # In the sim, serializing each write behind its compression can
            # only expose more write time than overlapping it.
            sync = simulate_strategy("test-sync", wl, BEBOP)
            over = simulate_strategy("overlap", wl, BEBOP)
            assert sync.makespan_seconds >= over.makespan_seconds - 1e-12
        finally:
            self._cleanup("test-sync")

    def test_overflow_disabled_raises_loudly_when_slots_overflow(self, tmp_path):
        from repro.errors import OverflowHandlingError

        self._register("test-nooverflow", overflow=OverflowPhase(enabled=False))
        try:
            gen, codecs, payload = _setup(seed=41, bound_scale=50.0)
            wl = workload_from_arrays([p[0] for p in payload], codecs)
            config = PipelineConfig(extra_space_ratio=1.1)
            with pytest.raises(OverflowHandlingError):
                simulate_strategy("test-nooverflow", wl, BEBOP, config)
            with pytest.raises(OverflowHandlingError):
                _run_real(tmp_path / "no.phd5", "test-nooverflow", payload, codecs, config)
        finally:
            self._cleanup("test-nooverflow")

    def test_overflow_disabled_runs_clean_when_nothing_overflows(self, tmp_path):
        # Plan from raw partition sizes: slots always fit the compressed
        # streams, so the missing repair phase is legitimately unused.
        self._register(
            "test-nooverflow2",
            predict=PredictPhase(enabled=False),
            overflow=OverflowPhase(enabled=False),
        )
        try:
            gen, codecs, payload = _setup()
            wl = workload_from_arrays([p[0] for p in payload], codecs)
            config = PipelineConfig(extra_space_ratio=1.43)
            sim = simulate_strategy("test-nooverflow2", wl, BEBOP, config)
            assert sim.overflow_nbytes == 0 and sim.overflow_seconds == 0.0
            stats = _run_real(
                tmp_path / "no2.phd5", "test-nooverflow2", payload, codecs, config
            )
            assert all(s.total_overflow == 0 for s in stats)
        finally:
            self._cleanup("test-nooverflow2")


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
        """Algorithm 1 sees identical task costs in both worlds, so the
        per-rank compression order must match."""
        gen, codecs, payload, wl = setup
        stats = _run_real(tmp_path / "order.phd5", "reorder", payload, codecs)
        sim_driver = SimDriver(BEBOP)
        sim = sim_driver.run("reorder", wl)
        assert sim.makespan_seconds > 0
        from repro.core.strategy import predict_phase_costs
        from repro.core.writers import default_models

        tmodel, wmodel = default_models(BEBOP, NRANKS)
        names = list(FIELDS)
        nv = wl.matrix("n_values")
        pr = wl.matrix("predicted_nbytes")
        strat = get_strategy("reorder")
        for r, s in enumerate(stats):
            compress_s, write_s = predict_phase_costs(tmodel, wmodel, nv[:, r], pr[:, r])
            expected = strat.compress_write.field_order(names, compress_s, write_s)
            assert s.order == expected

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
