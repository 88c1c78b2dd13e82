"""Tests for the Lorenzo delta transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.compression import predictors
from repro.compression.predictors import (
    LorenzoPredictor,
    lorenzo_forward,
    lorenzo_integrate,
    lorenzo_inverse,
)


class TestLorenzoIdentity:
    def test_1d_matches_definition(self):
        q = np.array([3, 5, 4, 4, 10], dtype=np.int64)
        d = lorenzo_forward(q)
        assert d.tolist() == [3, 2, -1, 0, 6]

    def test_2d_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(0)
        q = rng.integers(-50, 50, (6, 7)).astype(np.int64)
        d = lorenzo_forward(q)
        qp = np.pad(q, ((1, 0), (1, 0)))
        expected = qp[1:, 1:] - qp[:-1, 1:] - qp[1:, :-1] + qp[:-1, :-1]
        assert np.array_equal(d, expected)

    def test_3d_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(1)
        q = rng.integers(-9, 9, (4, 5, 3)).astype(np.int64)
        d = lorenzo_forward(q)
        qp = np.pad(q, ((1, 0), (1, 0), (1, 0)))
        expected = (
            qp[1:, 1:, 1:]
            - qp[:-1, 1:, 1:]
            - qp[1:, :-1, 1:]
            - qp[1:, 1:, :-1]
            + qp[:-1, :-1, 1:]
            + qp[:-1, 1:, :-1]
            + qp[1:, :-1, :-1]
            - qp[:-1, :-1, :-1]
        )
        assert np.array_equal(d, expected)

    def test_roundtrip_3d(self):
        rng = np.random.default_rng(2)
        q = rng.integers(-(10**9), 10**9, (8, 9, 10)).astype(np.int64)
        assert np.array_equal(lorenzo_inverse(lorenzo_forward(q)), q)

    def test_roundtrip_1d(self):
        q = np.array([0, -1, 7, 7, 7, -100], dtype=np.int64)
        assert np.array_equal(lorenzo_inverse(lorenzo_forward(q)), q)

    def test_smooth_data_gives_small_deltas(self):
        # The whole point of Lorenzo: smooth data -> tightly clustered deltas.
        x = np.linspace(0, 2 * np.pi, 64)
        q = np.rint(1000 * np.sin(x[:, None]) * np.cos(x[None, :])).astype(np.int64)
        d = lorenzo_forward(q)
        interior = d[1:, 1:]
        assert np.abs(interior).max() < np.abs(q).max() / 10

    def test_constant_field_deltas_are_zero_inside(self):
        q = np.full((5, 5, 5), 42, dtype=np.int64)
        d = lorenzo_forward(q)
        assert d[0, 0, 0] == 42
        d[0, 0, 0] = 0
        assert np.count_nonzero(d) == 0

    @given(
        arrays(
            dtype=np.int64,
            shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
            elements=st.integers(-(2**40), 2**40),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, q):
        assert np.array_equal(lorenzo_inverse(lorenzo_forward(q)), q)


class TestForwardLeavesInputAlone:
    """``lorenzo_forward`` writes only the buffers it allocates."""

    @pytest.mark.parametrize(
        "shape", [(7,), (1,), (5, 6), (4, 5, 3), (2, 3, 4, 5), (0,), (4, 0, 3), (3, 1, 2)]
    )
    def test_input_bytes_unchanged(self, shape):
        rng = np.random.default_rng(5)
        q = rng.integers(-1000, 1000, shape).astype(np.int64)
        before = q.tobytes()
        d = lorenzo_forward(q)
        assert q.tobytes() == before
        assert d.shape == q.shape and d.dtype == np.int64
        assert not np.shares_memory(d, q)
        assert np.array_equal(lorenzo_inverse(d), q)

    def test_non_contiguous_and_narrow_input(self):
        rng = np.random.default_rng(6)
        base = rng.integers(-50, 50, (6, 8, 10)).astype(np.int32)
        q = base[::2, :, ::3]
        before = base.tobytes()
        d = lorenzo_forward(q)
        assert base.tobytes() == before
        assert np.array_equal(d, lorenzo_forward(np.ascontiguousarray(q, dtype=np.int64)))


def cumsum_oracle(d: np.ndarray) -> np.ndarray:
    """The inverse as its definition: one ``np.cumsum`` per axis, last first."""
    q = np.asarray(d, dtype=np.int64)
    for axis in range(q.ndim - 1, -1, -1):
        q = np.cumsum(q, axis=axis)
    return q


class TestInverseLeavesInputAlone:
    """``lorenzo_inverse`` writes only the array it allocates."""

    @pytest.mark.parametrize(
        "shape",
        [(7,), (1,), (5, 6), (4, 5, 3), (2, 3, 4, 5), (0,), (4, 0, 3), (3, 1, 2), (40, 1, 40)],
    )
    def test_input_bytes_unchanged(self, shape):
        rng = np.random.default_rng(7)
        d = rng.integers(-1000, 1000, shape).astype(np.int64)
        before = d.tobytes()
        q = lorenzo_inverse(d)
        assert d.tobytes() == before
        assert q.shape == d.shape and q.dtype == np.int64
        assert not np.shares_memory(q, d)
        assert np.array_equal(q, cumsum_oracle(d))

    def test_non_contiguous_and_narrow_input(self):
        rng = np.random.default_rng(8)
        base = rng.integers(-50, 50, (6, 8, 10)).astype(np.int32)
        d = base[::2, :, ::3]
        before = base.tobytes()
        q = lorenzo_inverse(d)
        assert base.tobytes() == before
        assert not np.shares_memory(q, base)
        assert np.array_equal(q, cumsum_oracle(d))

    def test_slab_path_leaves_input_alone(self):
        # Axis 0's 48 x 48 slabs take the slab adds, the other two cumsum.
        rng = np.random.default_rng(9)
        d = rng.integers(-(2**40), 2**40, (5, 48, 48))
        before = d.tobytes()
        assert np.array_equal(lorenzo_inverse(d), cumsum_oracle(d))
        assert d.tobytes() == before

    @given(
        arrays(
            dtype=np.int64,
            shape=array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=9),
            elements=st.integers(-(2**62), 2**62),
        ),
        st.sampled_from([(1, 2), (16, 4), (predictors._SLAB_MIN, predictors._RUN_MIN)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_integration_equals_cumsum_oracle(self, d, thresholds):
        # Lowered thresholds send small arrays down the slab adds; int64
        # wraps the same way in both, so even overflow must agree.
        expected = cumsum_oracle(d)
        q = d.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(predictors, "_SLAB_MIN", thresholds[0])
            patch.setattr(predictors, "_RUN_MIN", thresholds[1])
            assert lorenzo_integrate(q) is q
        assert np.array_equal(q, expected)


class TestPredictorObjects:
    def test_lorenzo_object_consistency(self):
        p = LorenzoPredictor()
        q = np.arange(27, dtype=np.int64).reshape(3, 3, 3)
        assert np.array_equal(p.inverse(p.forward(q)), q)
        assert np.array_equal(p.forward(q), lorenzo_forward(q))
