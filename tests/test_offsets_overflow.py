"""Tests for offset tables and overflow planning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.errors import ConfigError, OverflowHandlingError


def make_table(pred, orig, rspace=1.25, base=4096, align=8):
    return OffsetTable.compute(np.asarray(pred), np.asarray(orig), rspace, base, align)


class TestOffsetTable:
    def test_slots_disjoint_and_ordered(self):
        pred = [[100, 200], [300, 50]]
        orig = [[1000, 1000], [1000, 1000]]
        t = make_table(pred, orig)
        flat = sorted(
            (t.offsets[f, r], t.reserved[f, r])
            for f in range(2)
            for r in range(2)
        )
        for (o1, r1), (o2, _) in zip(flat[:-1], flat[1:]):
            assert o1 + r1 <= o2

    def test_reservation_includes_extra_space(self):
        t = make_table([[1000]], [[4000]], rspace=1.25)
        assert t.reserved[0, 0] >= 1250

    def test_eq3_boost_applied_at_high_ratio(self):
        # Predicted ratio 100 -> effective extra space 2.0 at Rspace 1.25.
        t = make_table([[100]], [[10000]], rspace=1.25)
        assert t.reserved[0, 0] >= 200

    def test_alignment(self):
        t = make_table([[101, 103], [99, 97]], [[400, 400], [400, 400]], align=16)
        assert np.all(t.offsets % 16 == t.base_offset % 16)
        assert np.all(t.reserved % 16 == 0)

    def test_data_end_consistent(self):
        t = make_table([[100, 200]], [[500, 500]])
        last_off, last_res = t.slot(0, 1)
        assert t.data_end == last_off + last_res

    def test_field_major_order(self):
        t = make_table([[10, 10], [10, 10]], [[40, 40], [40, 40]])
        assert t.offsets[0, 0] < t.offsets[0, 1] < t.offsets[1, 0] < t.offsets[1, 1]

    def test_deterministic(self):
        a = make_table([[123, 456]], [[1000, 1000]])
        b = make_table([[123, 456]], [[1000, 1000]])
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.reserved, b.reserved)

    def test_metadata_negligible(self):
        """Paper: ~295KB of metadata for 4096 procs x 9 fields vs 210GB."""
        pred = np.full((9, 4096), 50 * 2**20 // 14)
        orig = np.full((9, 4096), 50 * 2**20)
        t = OffsetTable.compute(pred, orig, 1.25, 4096)
        assert t.metadata_nbytes() < 1 * 2**20
        assert t.metadata_nbytes() / t.total_reserved < 1e-3

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_table([[0]], [[100]])
        with pytest.raises(ConfigError):
            make_table([100], [400])  # 1-D
        with pytest.raises(ConfigError):
            OffsetTable.compute(np.ones((2, 2)), np.ones((2, 3)), 1.25, 0)
        with pytest.raises(ConfigError):
            OffsetTable.compute(np.ones((2, 2)), np.ones((2, 2)), 1.25, -1)

    def test_constant_per_slot_ratios_give_the_scalar_table(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(100, 10**5, (3, 5))
        orig = pred * rng.integers(2, 64, (3, 5))  # some ratios past 32
        for rspace in (1.1, 1.25, 1.43):
            scalar = OffsetTable.compute(pred, orig, rspace, 4096)
            slots = OffsetTable.compute(pred, orig, np.full(pred.shape, rspace), 4096)
            assert np.array_equal(scalar.offsets, slots.offsets)
            assert np.array_equal(scalar.reserved, slots.reserved)
            assert scalar.data_end == slots.data_end

    def test_per_slot_ratios_size_each_slot(self):
        pred = np.array([[1000, 1000], [100, 100]])
        orig = np.array([[4000, 4000], [10000, 10000]])  # field 1 at ratio 100
        t = OffsetTable.compute(pred, orig, np.array([[1.1, 1.25], [1.1, 1.25]]), 4096)
        # Eq. (3) boosts field 1 from each slot's own ratio: 1.4 and 2.0.
        assert t.reserved.tolist() == [[1104, 1256], [144, 200]]
        assert t.data_end == 4096 + 1104 + 1256 + 144 + 200

    def test_per_slot_ratios_match_a_slot_by_slot_loop(self):
        rng = np.random.default_rng(11)
        pred = rng.integers(100, 10**5, (3, 6))
        orig = pred * rng.integers(2, 64, (3, 6))
        rspace = rng.uniform(1.1, 1.43, (3, 6))
        t = OffsetTable.compute(pred, orig, rspace, 4096)
        for f, r in np.ndindex(pred.shape):
            ratio, x = orig[f, r] / pred[f, r], float(rspace[f, r])
            boost = min(2.0, 1.0 + (x - 1.0) * 4.0) if ratio > 32.0 else x
            assert t.reserved[f, r] == -(-math.ceil(pred[f, r] * boost) // 8) * 8

    def test_per_slot_ratios_must_match_the_size_matrix(self):
        with pytest.raises(ConfigError):
            OffsetTable.compute(np.ones((2, 2)), np.ones((2, 2)), np.full((2, 3), 1.2), 0)
        with pytest.raises(ConfigError):
            OffsetTable.compute(np.ones((1, 2)), np.ones((1, 2)), np.array([[1.2, 0.5]]), 0)

    @given(
        st.integers(1, 4),
        st.integers(1, 8),
        st.integers(0, 2**31),
        st.floats(1.1, 1.43),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_no_overlap(self, nf, nr, seed, rspace):
        rng = np.random.default_rng(seed)
        pred = rng.integers(1, 10**6, (nf, nr))
        orig = pred * rng.integers(2, 64, (nf, nr))
        t = OffsetTable.compute(pred, orig, rspace, 4096)
        flat_off = t.offsets.reshape(-1)
        flat_res = t.reserved.reshape(-1)
        order = np.argsort(flat_off)
        for i, j in zip(order[:-1], order[1:]):
            assert flat_off[i] + flat_res[i] <= flat_off[j]
        assert np.all(flat_res >= pred.reshape(-1))  # slot always fits prediction


class TestOverflowPlan:
    def test_no_overflow(self):
        plan = OverflowPlan.compute(
            np.array([[10, 20]]), np.array([[16, 24]]), base_offset=1000
        )
        assert plan.total_overflow == 0
        assert plan.n_overflowing == 0
        assert plan.end_offset == 1000

    def test_tail_sizes(self):
        actual = np.array([[100, 50], [80, 10]])
        reserved = np.array([[60, 60], [60, 60]])
        plan = OverflowPlan.compute(actual, reserved, 1000)
        assert plan.tail(0, 0) == (1000, 40)
        assert plan.tail(0, 1) == (0, 0)
        assert plan.tail(1, 0) == (1040, 20)
        assert plan.total_overflow == 60
        assert plan.n_overflowing == 2
        assert plan.end_offset == 1060

    def test_tails_disjoint(self):
        rng = np.random.default_rng(1)
        actual = rng.integers(1, 1000, (3, 5))
        reserved = rng.integers(1, 1000, (3, 5))
        plan = OverflowPlan.compute(actual, reserved, 5000)
        spans = [
            plan.tail(f, r)
            for f in range(3)
            for r in range(5)
            if plan.tail(f, r)[1] > 0
        ]
        spans.sort()
        for (o1, n1), (o2, _) in zip(spans[:-1], spans[1:]):
            assert o1 + n1 <= o2

    def test_deterministic_across_callers(self):
        """Every rank must compute the identical plan from gathered sizes."""
        actual = np.array([[100, 200], [50, 400]])
        reserved = np.array([[150, 150], [150, 150]])
        a = OverflowPlan.compute(actual, reserved, 9000)
        b = OverflowPlan.compute(actual.copy(), reserved.copy(), 9000)
        assert np.array_equal(a.tail_offsets, b.tail_offsets)

    def test_validation(self):
        with pytest.raises(OverflowHandlingError):
            OverflowPlan.compute(np.ones((2, 2)), np.ones((3, 2)), 0)
        with pytest.raises(OverflowHandlingError):
            OverflowPlan.compute(np.ones((2, 2)), np.ones((2, 2)), -5)
        with pytest.raises(OverflowHandlingError):
            OverflowPlan.compute(-np.ones((2, 2)), np.ones((2, 2)), 0)

    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_property_conservation(self, seed, nf, nr):
        rng = np.random.default_rng(seed)
        actual = rng.integers(0, 500, (nf, nr))
        reserved = rng.integers(0, 500, (nf, nr))
        plan = OverflowPlan.compute(actual, reserved, 10**6)
        assert plan.total_overflow == int(np.maximum(actual - reserved, 0).sum())
        assert plan.end_offset - plan.base_offset == plan.total_overflow
