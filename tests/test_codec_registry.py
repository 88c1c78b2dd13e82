"""Tests for the codec registry and evaluation helpers."""

import numpy as np
import pytest

from repro.compression import (
    Codec,
    evaluate_codec,
    get_codec,
    register_codec,
)
from repro.compression.metrics import CompressionResult
from repro.errors import CompressionError

from helpers import make_smooth_field


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert isinstance(get_codec("sz", bound=0.5), Codec)
        assert isinstance(get_codec("zfp", rate=8), Codec)

    def test_get_codec_with_kwargs(self):
        codec = get_codec("sz", bound=0.5, mode="abs")
        assert codec.max_error() == 0.5

    def test_unknown_codec(self):
        with pytest.raises(CompressionError):
            get_codec("bogus")

    def test_register_requires_codec_subclass(self):
        with pytest.raises(TypeError):

            @register_codec("badclass")
            class NotACodec:
                pass

    def test_registered_custom_codec_retrievable(self):
        @register_codec("identity-test")
        class IdentityCodec(Codec):
            def compress(self, data):
                return data.astype("<f8").tobytes()

            def decompress(self, stream):
                return np.frombuffer(stream, dtype="<f8")

        codec = get_codec("identity-test")
        data = np.arange(4.0)
        assert np.array_equal(codec.decompress(codec.compress(data)), data)


class TestEvaluateCodec:
    def test_result_fields(self):
        data = make_smooth_field((16, 16, 16))
        res = evaluate_codec(get_codec("sz", bound=1e-3, mode="rel"), data)
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
        codec = get_codec("sz", bound=1e-2, mode="abs")
        res = evaluate_codec(codec, data, check_bound=True)
        assert res.max_error <= 1e-2

    def test_row_keys(self):
        data = make_smooth_field((8, 8))
        res = evaluate_codec(get_codec("sz", bound=1e-3, mode="rel"), data)
        row = res.row()
        assert set(row) == {
            "ratio",
            "bit_rate",
            "psnr_db",
            "max_error",
            "comp_MBps",
            "decomp_MBps",
        }
