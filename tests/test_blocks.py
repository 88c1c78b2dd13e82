"""Tests for the sampler's block decomposition: at fraction 1.0 it visits
every block of the partition, ragged edge blocks clipped, and a partition
with a zero-length axis has no blocks to sample."""

import numpy as np
import pytest

from repro.errors import ModelingError
from repro.modeling.sampling import sample_partition_stats

from helpers import sampled_deltas, unique_delta_field


class TestBlockViewSlices:
    def test_covers_every_element_once(self):
        # 7 x 5 x 3 in edge-2 blocks: ragged on every axis.
        data = unique_delta_field((7, 5, 3))
        deltas = sampled_deltas(data, fraction=1.0, block_edge=2)
        assert np.array_equal(np.sort(deltas), np.arange(data.size))

    def test_empty_shape_dim(self):
        for shape in ((0, 4), (3, 0, 2)):
            with pytest.raises(ModelingError, match="empty partition"):
                sample_partition_stats(np.zeros(shape), 1e-3, fraction=0.5)


class TestSampleBlockSlices:
    def test_full_fraction_returns_all(self):
        # Every 2 x 2 block in C block order, each block's values in C order.
        data = unique_delta_field((8, 8))
        index = np.arange(data.size).reshape(data.shape)
        expected = [
            index[i : i + 2, j : j + 2].ravel() for i in range(0, 8, 2) for j in range(0, 8, 2)
        ]
        deltas = sampled_deltas(data, fraction=1.0, block_edge=2)
        assert np.array_equal(deltas, np.concatenate(expected))

    def test_empty_shape(self):
        with pytest.raises(ModelingError, match="empty partition"):
            sample_partition_stats(np.zeros((0,)), 1e-3, fraction=0.5)
