"""Tests for the lossless backends and the ratio model's run-length size
analysis of that stage."""

import itertools
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lossless import lossless_compress, lossless_decompress
from repro.errors import CorruptStreamError
from repro.modeling.ratio_model import _rle_nbytes


def _rle_oracle(data: bytes) -> int:
    """A byte run-length code's size: 2 bytes per chunk of at most 256."""
    return sum(2 * -(-len(list(run)) // 256) for _, run in itertools.groupby(data))


def _zlib_stream(declared: int, body: bytes) -> bytes:
    return bytes((1,)) + struct.pack("<Q", declared) + body


class TestRLE:
    """Sizes of a byte run-length code, as ``_rle_nbytes`` computes them
    without building the code."""

    def test_empty(self):
        assert _rle_nbytes(b"") == 0

    def test_simple_runs(self):
        assert _rle_nbytes(b"aaaabbbcc") == 6

    def test_long_run_split(self):
        # 1000 = 256*3 + 232 -> 4 chunks -> 8 bytes
        assert _rle_nbytes(b"x" * 1000) == 8

    def test_run_of_exactly_256(self):
        assert _rle_nbytes(b"q" * 256) == 2

    def test_incompressible(self):
        assert _rle_nbytes(bytes(range(256))) == 512


class TestRLESize:
    """``_rle_nbytes`` matches the independent oracle above."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 512, 513, 1000])
    def test_single_run(self, n):
        assert _rle_nbytes(b"z" * n) == _rle_oracle(b"z" * n)

    def test_mixed_runs(self):
        data = b"a" * 300 + b"b" + b"a" * 256 + bytes(range(256)) + b"\0" * 600
        assert _rle_nbytes(data) == _rle_oracle(data)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 700)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_compress(self, runs):
        data = b"".join(bytes((v,)) * n for v, n in runs)
        assert _rle_nbytes(data) == _rle_oracle(data)


class TestWrapper:
    @pytest.mark.parametrize("backend", ["zlib", "none"])
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
        for backend in ("zlib", "none"):
            stream = lossless_compress(data, backend)
            assert len(stream) <= len(data) + 9
            out, _ = lossless_decompress(stream)
            assert out == data

    def test_empty_payload(self):
        for backend in ("zlib", "none"):
            stream = lossless_compress(b"", backend)
            out, consumed = lossless_decompress(stream)
            assert out == b""
            assert consumed == len(stream)

    def test_unknown_backend_rejected(self):
        for backend in ("lz4", "rle"):
            with pytest.raises(ValueError):
                lossless_compress(b"x", backend)

    def test_truncated_stream_rejected(self):
        zlib_stream = lossless_compress(b"abcd" * 1000, "zlib")
        for stream in (b"\x00\x01", zlib_stream[:-4]):  # the latter lacks its adler32
            with pytest.raises(CorruptStreamError):
                lossless_decompress(stream)

    def test_unknown_tag_rejected(self):
        # 2 was the run-length backend's tag; nothing writes it any more.
        for tag in (77, 2):
            stream = bytearray(lossless_compress(b"hello", "none"))
            stream[0] = tag
            with pytest.raises(CorruptStreamError, match=f"^unknown lossless tag {tag}$"):
                lossless_decompress(bytes(stream))

    def test_raw_truncated_body_rejected(self):
        stream = lossless_compress(b"hello world", "none")
        for bad in (stream[:-3], b"\x00" + struct.pack("<Q", 2**64 - 1) + stream[9:]):
            with pytest.raises(CorruptStreamError):
                lossless_decompress(bad)

    def test_zlib_bomb_rejected_without_inflating(self):
        # ~229 KB that declare 10 bytes but inflate to 50 MiB of zeros.
        deflater = zlib.compressobj(1)
        chunk = bytes(1 << 20)
        body = b"".join(deflater.compress(chunk) for _ in range(50)) + deflater.flush()
        stream = _zlib_stream(10, body)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError, match="length mismatch"):
                lossless_decompress(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_zlib_body_checked_to_its_end(self):
        data = b"abcd" * 1000
        stream = lossless_compress(data, "zlib")
        assert stream[0] == 1
        with pytest.raises(CorruptStreamError, match="trailing bytes"):
            lossless_decompress(stream + b"junk")
        for declared in (len(data) - 1, len(data) + 1, 2**63 - 1, 2**64 - 1):
            with pytest.raises(CorruptStreamError, match="length mismatch|out of range"):
                lossless_decompress(_zlib_stream(declared, stream[9:]))

    @given(st.binary(max_size=2000), st.sampled_from(["zlib", "none"]))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, data, backend):
        out, _ = lossless_decompress(lossless_compress(data, backend))
        assert out == data
