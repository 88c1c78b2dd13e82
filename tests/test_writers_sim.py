"""Tests for the simulated write strategies (paper Fig. 4 semantics)."""

import numpy as np
import pytest

from repro.core import PipelineConfig, build_workload, simulate_strategy
from repro.core.strategy import STRATEGIES
from repro.core.workload import scale_workload
from repro.core.writers import default_models
from repro.errors import ConfigError
from repro.sim import BEBOP, SUMMIT


@pytest.fixture(scope="module")
def workload():
    wl = build_workload("nyx", nranks=8, shape=(32, 32, 32), seed=11,
                        include_particles=True)
    # 256^3 values per partition: the paper's per-process data volume, where
    # compression and write are balanced (writes "deserve" compression).
    return scale_workload(wl, nranks=64, values_per_partition=256**3)


class TestStrategyBasics:
    def test_all_strategies_run(self, workload):
        for strat in STRATEGIES:
            res = simulate_strategy(strat, workload, SUMMIT)
            assert res.makespan_seconds > 0
            assert res.strategy == strat
            assert res.nranks == 64

    def test_unknown_strategy(self, workload):
        with pytest.raises(ConfigError):
            simulate_strategy("magic", workload, SUMMIT)

    def test_deterministic(self, workload):
        a = simulate_strategy("reorder", workload, SUMMIT)
        b = simulate_strategy("reorder", workload, SUMMIT)
        assert a.makespan_seconds == b.makespan_seconds

    def test_nocomp_writes_raw_bytes(self, workload):
        res = simulate_strategy("nocomp", workload, SUMMIT)
        assert res.file_footprint_nbytes == workload.original_total
        assert res.compress_seconds == 0.0
        assert res.effective_ratio == pytest.approx(1.0)

    def test_filter_has_no_extra_space(self, workload):
        res = simulate_strategy("filter", workload, SUMMIT)
        assert res.file_footprint_nbytes == workload.actual_total
        assert res.overflow_nbytes == 0

    def test_overlap_footprint_includes_extra_space(self, workload):
        res = simulate_strategy("overlap", workload, SUMMIT)
        assert res.file_footprint_nbytes > workload.actual_total
        assert res.storage_overhead_vs_ideal > 0
        assert res.ideal_ratio > res.effective_ratio


class TestPaperOrdering:
    """The qualitative results that define the paper."""

    def test_filter_beats_nocomp(self, workload):
        nocomp = simulate_strategy("nocomp", workload, SUMMIT)
        filt = simulate_strategy("filter", workload, SUMMIT)
        assert filt.makespan_seconds < nocomp.makespan_seconds

    def test_overlap_beats_filter(self, workload):
        filt = simulate_strategy("filter", workload, SUMMIT)
        over = simulate_strategy("overlap", workload, SUMMIT)
        assert over.makespan_seconds < filt.makespan_seconds

    def test_reorder_not_worse_than_overlap(self, workload):
        over = simulate_strategy("overlap", workload, SUMMIT)
        reo = simulate_strategy("reorder", workload, SUMMIT)
        assert reo.makespan_seconds <= over.makespan_seconds * 1.05

    def test_overlap_hides_most_write_time(self, workload):
        """The exposed write time must be a small fraction of the total
        write work (the whole point of overlapping)."""
        over = simulate_strategy("overlap", workload, SUMMIT)
        filt = simulate_strategy("filter", workload, SUMMIT)
        assert over.write_exposed_seconds < filt.write_seconds

    def test_compression_time_similar_across_solutions(self, workload):
        """Paper Fig. 16 note: our framework improves writing efficiency,
        not compression throughput."""
        filt = simulate_strategy("filter", workload, SUMMIT)
        reo = simulate_strategy("reorder", workload, SUMMIT)
        assert reo.compress_seconds == pytest.approx(filt.compress_seconds, rel=0.05)


class TestExtraSpaceEffects:
    def test_larger_rspace_fewer_overflows(self, workload):
        lo = simulate_strategy(
            "overlap", workload, SUMMIT, PipelineConfig(extra_space_ratio=1.1)
        )
        hi = simulate_strategy(
            "overlap", workload, SUMMIT, PipelineConfig(extra_space_ratio=1.43)
        )
        assert hi.n_overflow_partitions <= lo.n_overflow_partitions
        assert hi.storage_overhead_vs_ideal > lo.storage_overhead_vs_ideal

    def test_handle_overflow_false_removes_overflow(self, workload):
        res = simulate_strategy("overlap", workload, SUMMIT, handle_overflow=False)
        assert res.overflow_nbytes == 0
        assert res.overflow_seconds == 0.0

    def test_storage_overhead_vs_original_small(self, workload):
        """Paper headline: extra space costs ~1.5% of the *original* data."""
        res = simulate_strategy("reorder", workload, SUMMIT)
        assert res.storage_overhead_vs_original < 0.10


class TestMachinesAndModels:
    def test_summit_faster_than_bebop(self, workload):
        s = simulate_strategy("reorder", workload, SUMMIT)
        b = simulate_strategy("reorder", workload, BEBOP)
        assert s.makespan_seconds < b.makespan_seconds

    def test_default_models_cached(self):
        a = default_models(SUMMIT, 64)
        b = default_models(SUMMIT, 64)
        assert a is b

    def test_default_models_by_name(self):
        tmodel, wmodel = default_models("bebop", 32)
        assert tmodel.a < 0
        assert wmodel.cthr_bytes_per_s > 0

    def test_trace_is_recorded(self, workload):
        res = simulate_strategy("reorder", workload, SUMMIT)
        kinds = set(r.kind for r in res.trace.records)
        assert {"predict", "allgather", "compress", "write"} <= kinds
        art = res.trace.render_timeline(width=60)
        assert "rank" in art
