"""Tests for the lossless backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lossless import (
    _rle_compress,
    _rle_decompress,
    _rle_nbytes,
    lossless_compress,
    lossless_decompress,
)
from repro.errors import CorruptStreamError


class TestRLE:
    def test_empty(self):
        assert _rle_compress(b"") == b""
        assert _rle_decompress(b"", 0) == b""

    def test_simple_runs(self):
        data = b"aaaabbbcc"
        out = _rle_decompress(_rle_compress(data), len(data))
        assert out == data

    def test_long_run_split(self):
        data = b"x" * 1000
        comp = _rle_compress(data)
        assert _rle_decompress(comp, 1000) == data
        # 1000 = 256*3 + 232 -> 4 chunks -> 8 bytes
        assert len(comp) == 8

    def test_run_of_exactly_256(self):
        data = b"q" * 256
        comp = _rle_compress(data)
        assert len(comp) == 2
        assert _rle_decompress(comp, 256) == data

    def test_incompressible(self):
        data = bytes(range(256))
        comp = _rle_compress(data)
        assert _rle_decompress(comp, 256) == data
        assert len(comp) == 512  # expansion, guarded at the wrapper level

    def test_odd_length_stream_rejected(self):
        with pytest.raises(CorruptStreamError):
            _rle_decompress(b"\x00", 1)

    def test_length_mismatch_rejected(self):
        comp = _rle_compress(b"aaa")
        with pytest.raises(CorruptStreamError):
            _rle_decompress(comp, 5)

    def test_empty_stream_nonzero_expected(self):
        with pytest.raises(CorruptStreamError):
            _rle_decompress(b"", 3)

    @given(st.binary(max_size=3000))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data):
        assert _rle_decompress(_rle_compress(data), len(data)) == data


class TestRLESize:
    """``_rle_nbytes`` is the length of ``_rle_compress``'s output."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 512, 513, 1000])
    def test_single_run(self, n):
        assert _rle_nbytes(b"z" * n) == len(_rle_compress(b"z" * n))

    def test_mixed_runs(self):
        data = b"a" * 300 + b"b" + b"a" * 256 + bytes(range(256)) + b"\0" * 600
        assert _rle_nbytes(data) == len(_rle_compress(data))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 700)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_compress(self, runs):
        data = b"".join(bytes((v,)) * n for v, n in runs)
        assert _rle_nbytes(data) == len(_rle_compress(data))


class TestWrapper:
    @pytest.mark.parametrize("backend", ["zlib", "rle", "none"])
    def test_roundtrip(self, backend):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 4, 5000).astype(np.uint8).tobytes()
        stream = lossless_compress(data, backend)
        out, consumed = lossless_decompress(stream)
        assert out == data
        assert consumed == len(stream)

    def test_zlib_compresses_redundant_data(self):
        data = b"abcd" * 1000
        stream = lossless_compress(data, "zlib")
        assert len(stream) < len(data) // 4

    def test_store_if_bigger_guard(self):
        rng = np.random.default_rng(1)
        data = rng.bytes(2000)  # incompressible
        for backend in ("zlib", "rle", "none"):
            stream = lossless_compress(data, backend)
            assert len(stream) <= len(data) + 9
            out, _ = lossless_decompress(stream)
            assert out == data

    def test_empty_payload(self):
        for backend in ("zlib", "rle", "none"):
            stream = lossless_compress(b"", backend)
            out, consumed = lossless_decompress(stream)
            assert out == b""
            assert consumed == len(stream)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            lossless_compress(b"x", "lz4")

    def test_truncated_stream_rejected(self):
        with pytest.raises(CorruptStreamError):
            lossless_decompress(b"\x00\x01")

    def test_unknown_tag_rejected(self):
        stream = bytearray(lossless_compress(b"hello", "none"))
        stream[0] = 77
        with pytest.raises(CorruptStreamError):
            lossless_decompress(bytes(stream))

    def test_raw_truncated_body_rejected(self):
        stream = lossless_compress(b"hello world", "none")
        with pytest.raises(CorruptStreamError):
            lossless_decompress(stream[:-3])

    @given(st.binary(max_size=2000), st.sampled_from(["zlib", "rle", "none"]))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data, backend):
        out, _ = lossless_decompress(lossless_compress(data, backend))
        assert out == data
