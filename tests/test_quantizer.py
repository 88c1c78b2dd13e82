"""Tests for error-bounded linear pre-quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.quantizer import MAX_ABS_CODE, LinearQuantizer
from repro.errors import CompressionError


class TestConstruction:
    def test_rejects_bad_mode(self):
        with pytest.raises(CompressionError):
            LinearQuantizer(1e-3, mode="psnr")

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_bound(self, bad):
        with pytest.raises(CompressionError):
            LinearQuantizer(bad)


class TestAbsMode:
    def test_bound_holds(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 10, 1000)
        q = LinearQuantizer(0.05, "abs")
        spec = q.resolve(data)
        recon = q.dequantize(q.quantize(data, spec), spec)
        assert np.max(np.abs(recon - data)) <= 0.05 + 1e-12

    def test_spec_records_request(self):
        q = LinearQuantizer(0.5, "abs")
        spec = q.resolve(np.zeros(3))
        assert spec.abs_bound == 0.5
        assert spec.mode == "abs"

    def test_rejects_integer_input(self):
        q = LinearQuantizer(0.5, "abs")
        spec = q.resolve(np.zeros(3))
        with pytest.raises(CompressionError):
            q.quantize(np.arange(4), spec)

    def test_rejects_nan(self):
        q = LinearQuantizer(0.5, "abs")
        data = np.array([1.0, np.nan])
        spec = q.resolve(data)
        with pytest.raises(CompressionError, match="NaN/Inf"):
            q.quantize(data, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_non_finite_anywhere(self, bad, dtype):
        q = LinearQuantizer(0.5, "abs")
        spec = q.resolve(np.zeros(1))
        for at in (0, 3, 6):
            data = np.linspace(-3.0, 3.0, 7).astype(dtype)
            data[at] = bad
            with pytest.raises(CompressionError, match="NaN/Inf"):
                q.quantize(data, spec)

    def test_rejects_code_overflow(self):
        q = LinearQuantizer(1e-300, "abs")
        data = np.array([1.0])
        spec = q.resolve(data)
        with pytest.raises(CompressionError, match="error bound too small"):
            q.quantize(data, spec)

    def test_overflow_on_either_side(self):
        q = LinearQuantizer(0.5, "abs")
        spec = q.resolve(np.zeros(1))
        for edge in (-1.0, 1.0):
            ok = np.array([0.0, edge * MAX_ABS_CODE])  # scaled by 1/(2*0.5) = 1
            assert q.quantize(ok, spec).tolist() == [0, int(edge) * MAX_ABS_CODE]
            with pytest.raises(CompressionError, match="error bound too small"):
                q.quantize(np.array([0.0, edge * 2.0 * MAX_ABS_CODE]), spec)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_bytes_unchanged(self, dtype):
        rng = np.random.default_rng(4)
        data = rng.normal(0, 10, (6, 7, 5)).astype(dtype)
        before = data.tobytes()
        q = LinearQuantizer(0.01, "abs")
        codes = q.quantize(data, q.resolve(data))
        assert data.tobytes() == before
        assert codes.dtype == np.int64 and codes.shape == data.shape
        assert not np.shares_memory(codes, data)

    def test_zero_size_input(self):
        q = LinearQuantizer(0.01, "abs")
        for shape in [(0,), (0, 4), (4, 0, 3)]:
            codes = q.quantize(np.zeros(shape, np.float32), q.resolve(np.zeros(1)))
            assert codes.shape == shape and codes.dtype == np.int64

    def test_max_abs_code_sane(self):
        assert MAX_ABS_CODE < 2**62


class TestRelMode:
    def test_effective_bound_scales_with_range(self):
        data = np.array([0.0, 100.0])
        q = LinearQuantizer(0.01, "rel")
        spec = q.resolve(data)
        assert spec.abs_bound == pytest.approx(1.0)

    def test_bound_holds(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-3, 7, 512).astype(np.float32)
        q = LinearQuantizer(1e-3, "rel")
        spec = q.resolve(data)
        recon = q.dequantize(q.quantize(data, spec), spec)
        eb = 1e-3 * (data.max() - data.min())
        assert np.max(np.abs(recon - data.astype(np.float64))) <= eb + 1e-12

    def test_constant_data_does_not_divide_by_zero(self):
        data = np.full(16, 2.5)
        q = LinearQuantizer(0.01, "rel")
        spec = q.resolve(data)
        assert spec.abs_bound > 0.0

    @given(
        st.floats(1e-6, 1e-1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bound(self, rel_eb, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, 128)
        q = LinearQuantizer(rel_eb, "rel")
        spec = q.resolve(data)
        recon = q.dequantize(q.quantize(data, spec), spec)
        eb = rel_eb * (data.max() - data.min())
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9) + 1e-300
