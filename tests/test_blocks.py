"""Tests for block decomposition helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.blocks import block_view_slices, sample_block_slices


class TestBlockViewSlices:
    def test_covers_every_element_once(self):
        shape = (7, 5, 3)
        seen = np.zeros(shape, dtype=int)
        for sl in block_view_slices(shape, (3, 2, 2)):
            seen[sl] += 1
        assert np.all(seen == 1)

    def test_count_matches_num_blocks(self):
        # ceil(10 / 3) * ceil(11 / 4) blocks, ragged edges included
        assert len(list(block_view_slices((10, 11), (3, 4)))) == 4 * 3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            list(block_view_slices((4, 4), (2,)))

    def test_empty_shape_dim(self):
        assert list(block_view_slices((0, 4), (2, 2))) == []

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.lists(st.integers(1, 5), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_partition(self, shape, block):
        if len(shape) != len(block):
            block = (block * len(shape))[: len(shape)]
        seen = np.zeros(shape, dtype=int)
        for sl in block_view_slices(tuple(shape), tuple(block)):
            seen[sl] += 1
        assert np.all(seen == 1)


class TestSampleBlockSlices:
    def test_full_fraction_returns_all(self):
        shape, block = (8, 8), (2, 2)
        assert sample_block_slices(shape, block, 1.0) == list(block_view_slices(shape, block))

    def test_small_fraction_returns_at_least_one(self):
        assert len(sample_block_slices((8, 8), (2, 2), 0.001)) == 1

    def test_deterministic_without_rng(self):
        a = sample_block_slices((16, 16), (2, 2), 0.25)
        b = sample_block_slices((16, 16), (2, 2), 0.25)
        assert a == b

    def test_rng_sampling_is_subset(self):
        rng = np.random.default_rng(0)
        picks = sample_block_slices((16, 16), (4, 4), 0.5, rng=rng)
        as_tuples = [tuple((s.start, s.stop) for s in sl) for sl in picks]
        universe = {
            tuple((s.start, s.stop) for s in sl)
            for sl in block_view_slices((16, 16), (4, 4))
        }
        assert set(as_tuples) <= universe
        assert len(as_tuples) == len(set(as_tuples))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            sample_block_slices((4,), (2,), 0.0)
        with pytest.raises(ValueError):
            sample_block_slices((4,), (2,), 1.5)

    def test_empty_shape(self):
        assert sample_block_slices((0,), (2,), 0.5) == []
