"""Tests for the codec evaluation helpers."""

import pytest

from repro.compression import SZCompressor, evaluate_codec
from repro.compression.metrics import CompressionResult

from helpers import make_smooth_field


class TestEvaluateCodec:
    def test_result_fields(self):
        data = make_smooth_field((16, 16, 16))
        res = evaluate_codec(SZCompressor(bound=1e-3, mode="rel"), data)
        assert isinstance(res, CompressionResult)
        assert res.original_nbytes == data.nbytes
        assert res.compressed_nbytes > 0
        assert res.ratio > 1.0
        assert res.bit_rate == pytest.approx(32.0 / res.ratio)
        assert res.psnr_db > 20.0
        assert res.compress_seconds > 0.0
        assert res.compress_throughput > 0.0
        assert res.decompress_throughput > 0.0

    def test_bound_check_enforced(self):
        data = make_smooth_field((8, 8))
        codec = SZCompressor(bound=1e-2, mode="abs")
        res = evaluate_codec(codec, data, check_bound=True)
        assert res.max_error <= 1e-2

    def test_row_keys(self):
        data = make_smooth_field((8, 8))
        res = evaluate_codec(SZCompressor(bound=1e-3, mode="rel"), data)
        row = res.row()
        assert set(row) == {
            "ratio",
            "bit_rate",
            "psnr_db",
            "max_error",
            "comp_MBps",
            "decomp_MBps",
        }
