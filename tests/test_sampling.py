"""Tests for sampling-based partition statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.predictors import lorenzo_forward
from repro.compression.quantizer import LinearQuantizer
from repro.errors import ModelingError
from repro.modeling.sampling import sample_partition_stats

from helpers import make_smooth_field, sampled_deltas, unique_delta_field


class TestSamplePartitionStats:
    def test_full_fraction_matches_exact_histogram(self):
        """fraction=1 with halo correction reproduces the global transform."""
        data = make_smooth_field((24, 24, 24))
        radius = 512
        stats = sample_partition_stats(data, 1e-3, "rel", radius=radius, fraction=1.0)
        # Exact reference: global pipeline.
        quantizer = LinearQuantizer(1e-3, "rel")
        spec = quantizer.resolve(data)
        d = lorenzo_forward(quantizer.quantize(data, spec)).ravel()
        shifted = d + radius
        pred = (shifted >= 0) & (shifted < 2 * radius)
        symbols = np.where(pred, shifted + 1, 0)
        expected = np.bincount(symbols, minlength=2 * radius + 1)
        assert np.array_equal(stats.symbol_counts, expected)
        assert stats.n_sampled == data.size

    def test_partial_fraction_counts(self):
        data = make_smooth_field((32, 32, 32))
        stats = sample_partition_stats(data, 1e-3, "rel", fraction=0.05)
        assert 0 < stats.n_sampled < data.size
        assert stats.n_total == data.size
        assert 0.01 < stats.sample_fraction < 0.15

    def test_histogram_peaked_for_smooth_data(self):
        data = make_smooth_field((24, 24, 24), noise=0.0)
        stats = sample_partition_stats(data, 1e-2, "rel", fraction=0.2)
        top = stats.symbol_counts.max()
        assert top > 0.2 * stats.n_sampled  # strongly peaked distribution

    def test_outlier_fraction_with_small_radius(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (16, 16, 16))
        stats = sample_partition_stats(data, 1e-6, "rel", radius=4, fraction=0.5)
        assert stats.outlier_fraction > 0.1

    def test_outlier_fraction_zero_for_smooth(self):
        data = make_smooth_field((16, 16, 16))
        stats = sample_partition_stats(data, 1e-2, "rel", fraction=0.5)
        assert stats.outlier_fraction == 0.0

    def test_n_unique_symbols(self):
        data = make_smooth_field((16, 16, 16))
        stats = sample_partition_stats(data, 1e-3, "rel", fraction=0.5)
        assert 1 <= stats.n_unique_symbols <= stats.symbol_counts.size

    def test_validation(self):
        with pytest.raises(ModelingError):
            sample_partition_stats(np.zeros((4, 4)), 1e-3, radius=1)
        with pytest.raises(ModelingError):
            sample_partition_stats(np.zeros(()), 1e-3)

    def test_1d_data(self):
        data = make_smooth_field((2048,), dtype=np.float64)
        stats = sample_partition_stats(data, 1e-3, "rel", fraction=0.1)
        assert stats.n_sampled > 0


class TestSampledBlocks:
    """Which values the sampler examines: a uniform stride over the
    C-order block sequence, edge blocks clipped to the partition."""

    def test_fraction_outside_unit_interval_raises(self):
        data = make_smooth_field((8, 8))
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_partition_stats(data, 1e-3, fraction=fraction)

    def test_samples_at_least_one_block(self):
        data = make_smooth_field((8, 8))
        stats = sample_partition_stats(data, 1e-3, fraction=0.001, block_edge=2)
        assert stats.n_sampled == 4

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_full_fraction_covers_every_value_once(self, shape, edge):
        data = unique_delta_field(tuple(shape))
        deltas = sampled_deltas(data, fraction=1.0, block_edge=edge)
        assert np.array_equal(np.sort(deltas), np.arange(data.size))

    def test_stride_counts_ragged_blocks(self):
        # (10, 12) in 4x4 blocks is 3 x 3 blocks, the last row 2 values
        # high; a third of them is blocks 0, 3 and 6, one per block row.
        data = unique_delta_field((10, 12))
        deltas = sampled_deltas(data, fraction=1 / 3, block_edge=4)
        assert deltas.size == 16 + 16 + 8
        rows, cols = np.unravel_index(deltas, data.shape)
        assert set(cols) == {0, 1, 2, 3}
        assert np.array_equal(np.unique(rows), np.arange(10))

    def test_deterministic(self):
        data = make_smooth_field((16, 16))
        a = sample_partition_stats(data, 1e-3, fraction=0.25, block_edge=2)
        b = sample_partition_stats(data, 1e-3, fraction=0.25, block_edge=2)
        assert np.array_equal(a.sampled_symbols, b.sampled_symbols)
