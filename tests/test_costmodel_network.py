"""Tests for the compression cost model, comm model, machines, and traces."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim import (
    BEBOP,
    SUMMIT,
    CommModel,
    Environment,
    SZCostModel,
    TraceRecorder,
    get_machine,
)


class TestSZCostModel:
    def test_bounds_match_paper_constants(self):
        m = SZCostModel()  # Bebop defaults
        lo, hi = m.bounds_mbps()
        assert lo == pytest.approx(101.7, rel=1e-6)
        assert hi == pytest.approx(240.6, rel=1e-6)

    def test_throughput_decreases_with_bitrate(self):
        m = SZCostModel()
        ts = [m.throughput_mbps(b) for b in (0.5, 2, 8, 32)]
        assert ts == sorted(ts, reverse=True)

    def test_time_scales_linearly_with_n(self):
        m = SZCostModel(tree_seconds_per_symbol=0.0)
        t1 = m.compression_seconds(10**6, 4.0)
        t2 = m.compression_seconds(2 * 10**6, 4.0)
        assert t2 == pytest.approx(2 * t1)

    def test_outliers_add_cost(self):
        m = SZCostModel()
        base = m.compression_seconds(10**6, 4.0, n_outliers=0)
        loaded = m.compression_seconds(10**6, 4.0, n_outliers=10**5)
        assert loaded > base

    def test_tree_build_cost(self):
        m = SZCostModel()
        small = m.compression_seconds(10**5, 4.0, n_unique_symbols=16)
        large = m.compression_seconds(10**5, 4.0, n_unique_symbols=65536)
        assert large > small

    def test_noise_reproducible_and_bounded(self):
        m = SZCostModel(noise=0.05)
        a = m.compression_seconds(10**6, 2.0, rng=42)
        b = m.compression_seconds(10**6, 2.0, rng=42)
        assert a == b
        clean = SZCostModel().compression_seconds(10**6, 2.0)
        assert 0.7 * clean < a < 1.4 * clean

    def test_validation(self):
        with pytest.raises(SimulationError):
            SZCostModel(cmin_mbps=300, cmax_mbps=200)
        m = SZCostModel()
        with pytest.raises(SimulationError):
            m.compression_seconds(-1, 2.0)
        with pytest.raises(SimulationError):
            m.compression_seconds(10, -2.0)

    def test_throughput_in_paper_band(self):
        """Fig. 5: single-core throughput roughly 120-250 MB/s band."""
        m = SZCostModel()
        for br in (0.5, 1, 2, 4, 8):
            t = m.throughput_mbps(br)
            assert 100 < t < 250


class TestCommModel:
    def test_barrier_scaling(self):
        c = CommModel(alpha=1e-6)
        assert c.barrier_seconds(1) == 0.0
        assert c.barrier_seconds(2) == pytest.approx(1e-6)
        assert c.barrier_seconds(1024) == pytest.approx(10e-6)
        assert c.barrier_seconds(1025) == pytest.approx(11e-6)

    def test_allgather_grows_with_scale(self):
        c = CommModel()
        ts = [c.allgather_seconds(p, 64) for p in (2, 64, 512, 4096)]
        assert ts == sorted(ts)

    def test_allgather_single_rank_free(self):
        assert CommModel().allgather_seconds(1, 1000) == 0.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            CommModel(alpha=-1)
        c = CommModel()
        with pytest.raises(SimulationError):
            c.allgather_seconds(0, 10)
        with pytest.raises(SimulationError):
            c.allgather_seconds(4, -1)

    def test_reduce(self):
        c = CommModel()
        assert c.reduce_seconds(1, 100) == 0.0
        assert c.reduce_seconds(16, 100) > 0.0


class TestMachines:
    def test_lookup(self):
        assert get_machine("bebop") is BEBOP
        assert get_machine("SUMMIT") is SUMMIT
        with pytest.raises(ConfigError):
            get_machine("frontier")

    def test_summit_faster_io(self):
        assert SUMMIT.aggregate_bw > BEBOP.aggregate_bw
        assert SUMMIT.per_proc_bw > BEBOP.per_proc_bw

    def test_bebop_cost_model_anchored_to_paper(self):
        assert BEBOP.cost_model.cmin_mbps == 101.7
        assert BEBOP.cost_model.cmax_mbps == 240.6

    def test_make_filesystem_scales_with_ranks(self):
        env = Environment()
        small = BEBOP.make_filesystem(env, nranks=64)
        big = BEBOP.make_filesystem(env, nranks=512)
        assert small.aggregate_bw < big.aggregate_bw
        assert big.aggregate_bw == pytest.approx(BEBOP.aggregate_bw)

    def test_make_filesystem_validates(self):
        env = Environment()
        with pytest.raises(ConfigError):
            BEBOP.make_filesystem(env, nranks=0)

    def test_with_noise_copies(self):
        noisy = BEBOP.with_noise(0.1)
        assert noisy.cost_model.noise == 0.1
        assert BEBOP.cost_model.noise == 0.0


class TestTraceRecorder:
    def test_basic_aggregation(self):
        tr = TraceRecorder()
        tr.add(0, "compress", 0.0, 2.0)
        tr.add(0, "write", 2.0, 5.0)
        tr.add(1, "compress", 0.0, 3.0)
        tr.add(1, "write", 3.0, 4.0)
        assert tr.makespan() == 5.0
        assert tr.kind_end("compress") == 3.0
        assert tr.kind_total("compress") == 5.0
        assert tr.kind_total("compress", rank=0) == 2.0
        assert tr.max_rank_total("compress") == 3.0

    def test_exposed_write(self):
        tr = TraceRecorder()
        tr.add(0, "compress", 0.0, 3.0)
        tr.add(0, "write", 1.0, 6.0)
        assert tr.exposed_write_seconds() == pytest.approx(3.0)

    def test_exposed_write_fully_hidden(self):
        tr = TraceRecorder()
        tr.add(0, "compress", 0.0, 5.0)
        tr.add(0, "write", 1.0, 4.0)
        assert tr.exposed_write_seconds() == 0.0

    def test_invalid_record(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError):
            tr.add(0, "write", 2.0, 1.0)

    def test_by_kind(self):
        tr = TraceRecorder()
        tr.add(0, "a", 0, 1)
        tr.add(0, "b", 1, 2)
        tr.add(1, "a", 0, 2)
        groups = tr.by_kind()
        assert len(groups["a"]) == 2
        assert len(groups["b"]) == 1

    def test_render_timeline(self):
        tr = TraceRecorder()
        tr.add(0, "compress", 0.0, 1.0)
        tr.add(0, "write", 1.0, 2.0)
        tr.add(1, "compress", 0.0, 2.0)
        art = tr.render_timeline(width=40)
        assert "rank    0" in art
        assert "C" in art and "W" in art

    def test_render_empty(self):
        assert "empty" in TraceRecorder().render_timeline()

    def test_empty_defaults(self):
        tr = TraceRecorder()
        assert tr.makespan() == 0.0
        assert tr.kind_end("write") == 0.0
        assert tr.max_rank_total("write") == 0.0
