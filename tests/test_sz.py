"""Tests for the SZ-style compressor: round trips, error bounds, container."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import SZCompressor, huffman, parse_stream_info, sz
from repro.compression.lossless import lossless_compress, lossless_decompress
from repro.compression.sz import DEFAULT_RADIUS
from repro.data.nyx import NyxGenerator
from repro.errors import CompressionError, CorruptStreamError
from repro.utils.bits import pack_varlen_codes

from helpers import golden_field, make_smooth_field, reference_build_code


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_abs_bound_holds_3d(self, dtype):
        data = make_smooth_field((20, 20, 20), dtype=dtype)
        eb = 1e-3
        codec = SZCompressor(bound=eb, mode="abs")
        recon = codec.decompress(codec.compress(data))
        assert recon.dtype == data.dtype
        assert recon.shape == data.shape
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= eb

    def test_rel_bound_holds(self, smooth3d):
        codec = SZCompressor(bound=1e-3, mode="rel")
        recon = codec.decompress(codec.compress(smooth3d))
        eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
        assert np.max(np.abs(recon - smooth3d)) <= eb * (1 + 1e-9)

    def test_1d_signal(self, smooth1d):
        codec = SZCompressor(bound=1e-4, mode="rel")
        recon = codec.decompress(codec.compress(smooth1d))
        assert recon.shape == smooth1d.shape

    def test_2d_field(self, smooth2d):
        codec = SZCompressor(bound=1e-3, mode="rel")
        recon = codec.decompress(codec.compress(smooth2d))
        assert recon.shape == smooth2d.shape

    def test_constant_field(self):
        data = np.full((8, 8), 3.25, dtype=np.float32)
        codec = SZCompressor(bound=1e-2, mode="rel")
        recon = codec.decompress(codec.compress(data))
        assert np.allclose(recon, data)

    def test_tiny_array(self):
        data = np.array([1.5], dtype=np.float64)
        codec = SZCompressor(bound=0.1, mode="abs")
        recon = codec.decompress(codec.compress(data))
        assert abs(recon[0] - 1.5) <= 0.1 + 1e-12

    def test_noise_heavy_data_still_bounded(self, rough3d):
        codec = SZCompressor(bound=1e-4, mode="rel")
        recon = codec.decompress(codec.compress(rough3d))
        eb = 1e-4 * float(rough3d.max() - rough3d.min())
        assert np.max(np.abs(recon - rough3d)) <= eb * (1 + 1e-9)

    @pytest.mark.parametrize("lossless", ["zlib", "none"])
    def test_all_lossless_backends(self, smooth3d, lossless):
        codec = SZCompressor(bound=1e-3, mode="rel", lossless=lossless)
        recon = codec.decompress(codec.compress(smooth3d))
        eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
        assert np.max(np.abs(recon - smooth3d)) <= eb * (1 + 1e-9)

    def test_small_radius_forces_outliers(self, smooth3d):
        codec = SZCompressor(bound=1e-6, mode="rel", radius=4)
        stream = codec.compress(smooth3d)
        info = parse_stream_info(stream)
        assert info.n_outliers > 0
        recon = codec.decompress(stream)
        eb = 1e-6 * float(smooth3d.max() - smooth3d.min())
        # Casting the float64 reconstruction back to float32 can add half an
        # ulp on top of the quantizer's bound; allow that slack.
        ulp = float(np.finfo(np.float32).eps) * float(np.abs(smooth3d).max())
        assert np.max(np.abs(recon - smooth3d)) <= eb + ulp

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(1e-5, 1e-1),
        st.sampled_from([(65,), (9, 11), (5, 6, 7)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_error_bound(self, seed, eb, shape):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, shape)
        codec = SZCompressor(bound=eb, mode="abs")
        recon = codec.decompress(codec.compress(data))
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)


class TestRateBehaviour:
    def test_larger_bound_smaller_stream(self, smooth3d):
        small = len(SZCompressor(bound=1e-5, mode="rel").compress(smooth3d))
        large = len(SZCompressor(bound=1e-2, mode="rel").compress(smooth3d))
        assert large < small

    def test_smooth_beats_noise(self, smooth3d, rough3d):
        codec = SZCompressor(bound=1e-3, mode="rel")
        smooth_br = 8 * len(codec.compress(smooth3d)) / smooth3d.size
        rough_br = 8 * len(codec.compress(rough3d)) / rough3d.size
        assert smooth_br < rough_br

    def test_achieves_high_ratio_on_smooth_data(self):
        data = make_smooth_field((32, 32, 32), noise=0.0)
        codec = SZCompressor(bound=1e-2, mode="rel")
        stream = codec.compress(data)
        assert data.nbytes / len(stream) > 8.0


class TestValidation:
    def test_rejects_integers(self):
        with pytest.raises(CompressionError):
            SZCompressor().compress(np.arange(10))

    def test_rejects_scalar(self):
        with pytest.raises(CompressionError):
            SZCompressor().compress(np.float32(1.0))

    def test_rejects_tiny_radius(self):
        with pytest.raises(CompressionError):
            SZCompressor(radius=1)

    def test_max_error_reporting(self):
        assert SZCompressor(bound=0.5, mode="abs").max_error() == 0.5
        assert SZCompressor(bound=0.5, mode="rel").max_error() is None

    def test_default_radius_matches_sz(self):
        assert DEFAULT_RADIUS == 32768


class TestContainer:
    def test_stream_info_fields(self, smooth3d):
        codec = SZCompressor(bound=1e-3, mode="rel")
        stream = codec.compress(smooth3d)
        info = parse_stream_info(stream)
        assert info.shape == smooth3d.shape
        assert info.dtype == smooth3d.dtype
        assert info.mode == "rel"
        assert info.n_values == smooth3d.size
        assert info.total_nbytes == len(stream)
        assert info.compression_ratio == pytest.approx(smooth3d.nbytes / len(stream))
        assert info.bit_rate == pytest.approx(8 * len(stream) / smooth3d.size)

    def test_bad_magic_rejected(self, smooth3d):
        stream = bytearray(SZCompressor().compress(smooth3d))
        stream[0] = ord("X")
        with pytest.raises(CorruptStreamError):
            parse_stream_info(bytes(stream))

    def test_truncated_stream_rejected(self, smooth3d):
        stream = SZCompressor().compress(smooth3d)
        with pytest.raises(CorruptStreamError):
            SZCompressor().decompress(stream[: len(stream) // 2])

    def test_stream_is_self_contained(self, smooth3d):
        codec = SZCompressor(bound=1e-3, mode="rel")
        stream = codec.compress(smooth3d)
        # A *different* codec instance with different defaults must decode it.
        other = SZCompressor(bound=0.5, mode="abs", radius=64, lossless="none")
        recon = other.decompress(stream)
        eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
        assert np.max(np.abs(recon - smooth3d)) <= eb * (1 + 1e-9)

    @pytest.mark.parametrize("to", [200, 1])
    def test_flipped_huffman_table_byte_rejected(self, smooth3d, to):
        codec = SZCompressor(bound=1e-3, mode="abs", lossless="none")
        stream = bytearray(codec.compress(smooth3d))
        table = stream.index(b"HUF1") + 17  # magic, flags, nsyms, nvalues
        absent = table + bytes(stream[table : table + 2 * DEFAULT_RADIUS + 1]).index(0)
        stream[absent] = to  # 200: past the cap; 1: over-subscribes a full code
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(stream))

    @pytest.mark.parametrize("damage", ["truncated", "table", "count", "lossless tag"])
    def test_damaged_stream_in_a_batch_raises_its_own_error(self, damage):
        # ``decompress_many`` decodes a batch's Huffman stages in one lane
        # pass: a damaged stream at any position must fail exactly as alone.
        codec = SZCompressor(bound=1e-3, mode="abs", lossless="none")
        good = [
            codec.compress(make_smooth_field((16, 16, 32), noise=noise, seed=seed))
            for seed, noise in enumerate((0.0, 0.01, 0.1))
        ]
        bad = bytearray(codec.compress(make_smooth_field((16, 16, 32), seed=3)))
        huf = bad.index(b"HUF1")
        if damage == "truncated":
            bad = bad[:-8]
        elif damage == "table":  # an absent symbol's length over-subscribes the code
            table = huf + 17  # magic, flags, nsyms, nvalues
            bad[table + bytes(bad[table : table + 2 * DEFAULT_RADIUS + 1]).index(0)] = 1
        elif damage == "count":  # a value count the bitstream cannot hold
            bad[huf + 9 : huf + 17] = (8 * len(bad)).to_bytes(8, "little")
        else:  # the wrap tagged 2, the retired run-length backend's tag
            bad[sz._parse_header(bytes(bad))[1]] = 2
        bad = bytes(bad)
        with pytest.raises(CorruptStreamError) as alone:
            codec.decompress(bad)
        if damage == "lossless tag":
            assert str(alone.value) == "unknown lossless tag 2"
        for k in range(len(good) + 1):
            with pytest.raises(CorruptStreamError) as batched:
                codec.decompress_many(good[:k] + [bad] + good[k:])
            assert str(batched.value) == str(alone.value)
        recon = codec.decompress_many(good)
        assert all(np.array_equal(a, codec.decompress(s)) for a, s in zip(recon, good))


#: sha256 of ``SZCompressor(1e-3, "abs", lossless="none", **kw).compress``
#: over ``golden_field(edge, dtype, seed=edge)`` in the version 1 layout
#: (code table and outliers wrapped, bitstream raw), recorded when that
#: layout was introduced.  The lossless stage is left out so a different
#: zlib build cannot move them; it wraps the same bytes.
_GOLDEN = {
    (16, "float32"): "697b2deae1a635f50e4d75d8419660a115d0acce89476cd146f7544b37a19135",
    (16, "float64"): "871a2c3a29005073bac3c682d21cdfe6b6ce3725d1a82a9ac51e38ac50b5f98f",
    (32, "float32"): "5e47596f41067c31a7d327510a17d31be199d33f4fb8e0b3b734beb46de1bfe8",
    (32, "float64"): "953f5a12988a8f151b6f064dbd79cbd81a2bd1fd990aade43511225dc6d3be01",
    (64, "float32"): "c62340c40117c27ed9b92fb1dbcc22b26e76a6fd23591083a27df91d342bbfce",
    (64, "float64"): "122d67e6dcfac755d2bfd7fcf5fb7c6d2636a52232f2c65169602f1eb30be6c6",
}
_GOLDEN_OUTLIERS = "d8e05dd34d6b249923cb93363f73455386e7adc5b5d753d7116b188f6fd4b345"

#: The same streams in the version 0 layout (the whole body wrapped), as
#: :func:`_as_v0` rebuilds them: recorded at the commit before the encode
#: kernels were rewritten (d8dd7f6), the two 64-cubes, whose optimal codes
#: run to 18 bits, re-pinned when codes were limited to 15 bits (a4aaa08's
#: digests are ``_GOLDEN_OLD_LAYOUT``).
_GOLDEN_V0 = {
    (16, "float32"): "015f92c4fa209fd810b8174bdb338b3e6bfdafa8db908391479e3c8e7fcbc81d",
    (16, "float64"): "a404c64708942a050abceb6b798e6f2368aea4e796087d6a9eaa9d793ec5f19b",
    (32, "float32"): "044070922a933c7ee47d35e5752d745965619d89ad7290e94cbec475ffd8c2aa",
    (32, "float64"): "a535947ba1118ab1ffda9e18c9cee3b39ed0948629e12247942f470acc0676d1",
    (64, "float32"): "1010aa45fab952ca4908390300f413a48811f9237d2c1a7936e1fc4b4191dda5",
    (64, "float64"): "e63e368538d0112c67c3e16739520eb1387f2a4fd188e77bb2387e559e70d210",
}
#: The 64-cubes' version 0 streams as written before codes were limited.
_GOLDEN_OLD_LAYOUT = {
    (64, "float32"): "fd6c36dfb1638dbe934e14f383c7adba57f91e31ce842d2a69aca3c2c5d886d4",
    (64, "float64"): "3b8535bd9d578f7b489a12dc05ebf0ce68665c63a25ab44d57b0e0cd7280ce19",
}
_GOLDEN_OUTLIERS_V0 = "c8bd15f9cdf025e016482dc4b95f091d4998361a4385040993c52d8acccaea80"
_GOLDEN_FIXED = "0ee43965452dea1057072549cdde0679a20c7dd8b1e150a55e562febf609115a"

#: sha256 of the bytes of the array ``decompress`` returns for each of those
#: streams, recorded at the commit before the lane decoder (67195a6).
_GOLDEN_DECODED = {
    (16, "float32"): "f63472a8bb37ceed21d77b23c0387550b95a1208fe321c2d19b8e4b39ab616f7",
    (16, "float64"): "fce92dc94c7640ed36b0882d54e6e7042a5d3008e454a5b1b24fd51a8a23f9c5",
    (32, "float32"): "28075e0df1af18214ec32647a47c7171174f3438324adaffcea8fbb0cf379f64",
    (32, "float64"): "6f46f72132844e3588b7ef1622da4ef31e1b63893d0b03695c433e9f03fba623",
    (64, "float32"): "4b853fe047fe55cdc5cae29c5b8c11f54d1d9756e5646752c7be5da547ae76dc",
    (64, "float64"): "60266f48e2c4d0348d4dc8b2008df474b27a5502e4ace6cb7bf547062b7fcfcd",
}
#: the outlier and fixed-length streams hold the same field: one decode.
_GOLDEN_DECODED_SEED7 = "1587ac9180226b70bb268a66f067b5d48c739fb00d2de7e894969a2b2889f04e"

#: sha256 of ``compress`` on zero-size arrays (lossless "none") in the
#: version 1 layout.  ``RatioQualityModel.predict`` takes these exact bytes
#: as the size of an empty rank share.
_GOLDEN_EMPTY = {
    ((0,), "float32"): "732de3005f0c2b7a2d94a7507604b93584c3d0b38b29650269c104552b99f7d9",
    ((0,), "float64"): "13c8eaaa1934365b2ba6384e84536543c6f4f2c077b4cf0ef4230f1155166716",
    ((0, 4), "float32"): "aaf35a07a259f7178431aad3fbfb3243be2d7beb1724c126d7d20935f282392b",
    ((0, 4), "float64"): "f27f1e5aef37dc32f303f2af74be689fbf0a4827b198b772dc4bad1ed26b8592",
    ((4, 0, 3), "float32"): "c47257415ac502964c1c23562aa348edc1eb46ed7774c4611f53bada114186ee",
    ((4, 0, 3), "float64"): "3bfdab40865564dd93bf358b9b9b5218856c21f1178aade6200ced4cc1be3265",
}
#: The same in the version 0 layout, recorded at 2966b4a.
_GOLDEN_EMPTY_V0 = {
    ((0,), "float32"): "a6247a9cd6e6de5cb568984d7641a1aa4d77a8aa69f0925f431344c4a553d343",
    ((0,), "float64"): "54e2f9b23c7dc4fbabcfe6b16008f9b7516a03c3a050057595e7209c512c8475",
    ((0, 4), "float32"): "a2bbeddd891c9a4c2083388d5557c23774838ac61d4ce8f67942cb6de6711baf",
    ((0, 4), "float64"): "cf81d56fb7cb6c3f19f598923cc6315a6452d8571e50fa0c5e8c83d697c3599c",
    ((4, 0, 3), "float32"): "887f15bfb4ae7fe91da736c3f5319fce045380f610e62ec92fce9a4effcb39ed",
    ((4, 0, 3), "float64"): "85d4507e7beb00993c2a9f52fa6f5cba58cb6ace56991140d4276bb9893b6695",
}


def _v0_body(stream: bytes) -> bytes:
    """The body of ``stream``, of either layout, as version 0 stores it
    inside the wrap: Huffman table, bit count, bitstream, outliers."""
    info, body_off = sz._parse_header(stream)
    return sz._body(stream, info, body_off)


def _with_body(stream: bytes, body: bytes, n_outliers: int | None = None) -> bytes:
    """``stream`` in the version 0 layout (lossless "none"), with ``body``
    for its body and, unless None, ``n_outliers`` for the header's outlier
    count: the bytes the version 0 encoder wrote for that body."""
    info = parse_stream_info(stream)
    body_off = info.total_nbytes - info.body_nbytes
    wrapped = lossless_compress(body, "none")
    fields = list(sz._HEADER.unpack_from(stream, 4))
    if n_outliers is not None:
        fields[7] = n_outliers
    fields[3] = b"\x00"  # version
    fields[8] = len(wrapped)  # body_nbytes
    fields[9] = fields[10] = 0  # the trailing u64
    return stream[:4] + sz._HEADER.pack(*fields) + stream[4 + sz._HEADER.size : body_off] + wrapped


def _as_v0(stream: bytes) -> bytes:
    """``stream`` (lossless "none") as the version 0 encoder wrote it."""
    return _with_body(stream, _v0_body(stream))


def _recoded(stream: bytes, lengths_for, flags: int = 0) -> bytes:
    """``stream`` (lossless "none") with its Huffman stage re-encoded by
    hand under the per-symbol lengths ``lengths_for(histogram)`` returns,
    and ``flags`` in the table's flags byte: the version 0 bytes an
    encoder that built that code wrote."""
    body = _v0_body(stream)
    symbols, used = huffman.huffman_decode(body)
    nsymbols = huffman._parse_stream(body)[0].nsymbols
    lengths = lengths_for(np.bincount(symbols, minlength=nsymbols)).astype(np.uint8)
    codes = huffman._canonical_codes(lengths)
    payload, total_bits = pack_varlen_codes(codes[symbols], lengths[symbols])
    head = bytearray(huffman.serialize_code(huffman.HuffmanCode(lengths), symbols.size))
    head[4] = flags
    return _with_body(stream, bytes(head) + struct.pack("<Q", total_bits) + payload + body[used:])


def _unlimited_lengths(freqs: np.ndarray) -> np.ndarray:
    """The optimal code's lengths without the length limit."""
    return reference_build_code(freqs, None)[0]


def _fixed_lengths(freqs: np.ndarray) -> np.ndarray:
    """The fixed-length code the encoder fell back to, before codes were
    limited, when the optimal one ran past 48 bits: ceil(log2(#present))
    bits for every present symbol."""
    return np.where(freqs > 0, max(1, (int(np.count_nonzero(freqs)) - 1).bit_length()), 0)


class TestGoldenStreams:
    """Byte-identity of the encoder, checked in seconds.

    The histograms of these integer-built fields are full of equal counts
    (177 to 461 symbols, codes up to 15 bits, 18 before the limit), so a
    changed Huffman tie-break or a misplaced packed bit moves a digest.
    """

    @staticmethod
    def _digest(codec: SZCompressor, data: np.ndarray) -> str:
        stream = codec.compress(data)
        recon = codec.decompress(stream).astype(np.float64)
        assert np.max(np.abs(recon - data)) <= 1e-3 * (1 + 1e-9)
        return hashlib.sha256(stream).hexdigest()

    @pytest.mark.parametrize(("edge", "dtype"), sorted(_GOLDEN))
    def test_cubes(self, edge, dtype):
        codec = SZCompressor(1e-3, "abs", lossless="none")
        assert self._digest(codec, golden_field(edge, dtype, edge)) == _GOLDEN[edge, dtype]

    @pytest.mark.parametrize(("edge", "dtype"), sorted(_GOLDEN_V0))
    def test_v0_cubes(self, edge, dtype):
        # Version 0 streams of the same fields read by the version 0 path.
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = _as_v0(codec.compress(golden_field(edge, dtype, edge)))
        assert hashlib.sha256(stream).hexdigest() == _GOLDEN_V0[edge, dtype]
        assert parse_stream_info(stream).version == 0
        assert self._decoded(codec, stream) == _GOLDEN_DECODED[edge, dtype]

    def test_outliers_forced_by_a_small_radius(self):
        codec = SZCompressor(1e-3, "abs", radius=4, lossless="none")
        data = golden_field(32, np.float32, 7)
        stream = codec.compress(data)
        assert parse_stream_info(stream).n_outliers == 20516
        assert self._digest(codec, data) == _GOLDEN_OUTLIERS
        v0 = _as_v0(stream)
        assert hashlib.sha256(v0).hexdigest() == _GOLDEN_OUTLIERS_V0
        assert self._decoded(codec, v0) == _GOLDEN_DECODED_SEED7

    def test_fixed_length_fallback(self):
        # Before codes were limited, a code past 48 bits fell back to fixed
        # lengths, flagged 1 in the table; this is that stream of this field
        # (recorded with the cap lowered to 8 bits), rebuilt by hand.  The
        # flag is not read, and the stream decodes like any other.
        data = golden_field(32, np.float32, 7)
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = _recoded(codec.compress(data), _fixed_lengths, flags=1)
        assert hashlib.sha256(stream).hexdigest() == _GOLDEN_FIXED
        assert np.max(np.abs(codec.decompress(stream) - data)) <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize(("edge", "dtype"), sorted(_GOLDEN_OLD_LAYOUT))
    def test_old_layout_cubes(self, edge, dtype):
        # The 18-bit codes these cubes had before the limit are the oracle's.
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = _recoded(codec.compress(golden_field(edge, dtype, edge)), _unlimited_lengths)
        assert hashlib.sha256(stream).hexdigest() == _GOLDEN_OLD_LAYOUT[edge, dtype]
        assert self._decoded(codec, stream) == _GOLDEN_DECODED[edge, dtype]

    @pytest.mark.parametrize(("shape", "dtype"), sorted(_GOLDEN_EMPTY))
    def test_zero_size_arrays(self, shape, dtype):
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = codec.compress(np.zeros(shape, dtype))
        assert hashlib.sha256(stream).hexdigest() == _GOLDEN_EMPTY[shape, dtype]
        v0 = _as_v0(stream)
        assert hashlib.sha256(v0).hexdigest() == _GOLDEN_EMPTY_V0[shape, dtype]
        for s in (stream, v0):
            recon = codec.decompress(s)
            assert recon.shape == shape and recon.dtype == np.dtype(dtype)

    @staticmethod
    def _decoded(codec: SZCompressor, stream: bytes) -> str:
        return hashlib.sha256(np.ascontiguousarray(codec.decompress(stream)).tobytes()).hexdigest()

    @pytest.mark.parametrize(("edge", "dtype"), sorted(_GOLDEN))
    def test_decoded_cubes(self, edge, dtype):
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = codec.compress(golden_field(edge, dtype, edge))
        assert self._decoded(codec, stream) == _GOLDEN_DECODED[edge, dtype]

    def test_decoded_outliers_and_fixed_length_fallback(self):
        data = golden_field(32, np.float32, 7)
        small = SZCompressor(1e-3, "abs", radius=4, lossless="none")
        assert self._decoded(small, small.compress(data)) == _GOLDEN_DECODED_SEED7
        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = _recoded(codec.compress(data), _fixed_lengths, flags=1)
        assert self._decoded(codec, stream) == _GOLDEN_DECODED_SEED7


class TestGoldenLongStream:
    """What the decoder returns for one 2**19-value stream: sha256 of the
    decoded array, recorded at b1c6fd5, when its codes ran to 19 bits.
    They are limited to 15 bits now, and the stream as written before
    (``OLD_STREAM``, its sha256 at a4aaa08, in the version 0 layout)
    decodes to the same array."""

    DECODED = "202f5416cbec7f6cd8df3373daf8e00bc7b2c484980075202fc63e69f2e28133"
    OLD_STREAM = "c0968283afabfc432bdf99eea9691554df492c6629d4f4f567088590bd964bd1"

    @staticmethod
    def _compressed() -> bytes:
        data = np.concatenate([golden_field(64, np.float32, seed) for seed in (64, 65)])
        return SZCompressor(1e-3, "abs", lossless="none").compress(data)

    def _assert_decoded(self, stream: bytes) -> None:
        recon = np.ascontiguousarray(SZCompressor().decompress(stream))
        assert hashlib.sha256(recon.tobytes()).hexdigest() == self.DECODED

    def test_decoded_digest(self):
        stream = self._compressed()
        code, nvalues = huffman._parse_stream(stream[stream.index(b"HUF1") :])[:2]
        assert nvalues == 1 << 19 and code.max_length <= 15
        self._assert_decoded(stream)

    def test_old_layout_decodes_to_the_same_array(self, monkeypatch):
        # Its 16- to 19-bit codes take the scalar oracle.
        stream = _recoded(self._compressed(), _unlimited_lengths)
        assert hashlib.sha256(stream).hexdigest() == self.OLD_STREAM
        code = huffman._parse_stream(stream[stream.index(b"HUF1") :])[0]
        assert code.max_length == 19
        oracle, calls = huffman._decode_scalar, []
        monkeypatch.setattr(huffman, "_decode_scalar", lambda *a: calls.append(a) or oracle(*a))
        self._assert_decoded(stream)
        assert len(calls) == 1


def test_damaged_value_count_rejected(smooth3d):
    # The Huffman header's count drives every allocation of the decode: 2**50
    # used to ask numpy for 8 PiB (a bare MemoryError), and a count the
    # bitstream cannot hold walked the whole stream before failing.
    codec = SZCompressor(bound=1e-3, mode="abs", lossless="none")
    stream = bytearray(codec.compress(smooth3d))
    count = stream.index(b"HUF1") + 9  # magic, flags, nsyms | nvalues
    assert int.from_bytes(stream[count : count + 8], "little") == smooth3d.size
    for nvalues in (2**50, 2**31, 8 * len(stream)):
        stream[count : count + 8] = nvalues.to_bytes(8, "little")
        with pytest.raises(CorruptStreamError, match="value count"):
            codec.decompress(bytes(stream))


def _reframe(stream: bytes, n_outliers: int, cut: int = 0) -> bytes:
    """``stream`` (version 1, lossless "none") with the header's outlier
    count set to ``n_outliers`` and ``cut`` bytes dropped from the end of
    its wrapped part (the outliers); the raw part and its CRC stay."""
    info, body_off = sz._parse_header(stream)
    split = body_off + info.wrapped_nbytes
    inner, _ = lossless_decompress(stream[body_off:split])
    wrapped = lossless_compress(inner[: len(inner) - cut], "none")
    raw = stream[split:]
    fields = list(sz._HEADER.unpack_from(stream, 4))
    fields[7] = n_outliers
    fields[8] = len(wrapped) + len(raw)  # body_nbytes
    fields[9] = len(wrapped)  # wrapped_nbytes
    head = stream[:4] + sz._HEADER.pack(*fields) + stream[4 + sz._HEADER.size : body_off]
    return head + wrapped + raw


class TestRebuildChecks:
    """Every check of the rebuild raises its own message, alone and inside
    a batch, before the symbol buffer it would rebuild in place is written."""

    @staticmethod
    def _damaged(damage: str) -> bytes:
        codec = SZCompressor(1e-3, "abs", radius=4, lossless="none")
        stream = codec.compress(make_smooth_field((16, 16, 32), noise=0.1, seed=4))
        n = parse_stream_info(stream).n_outliers
        assert n > 0
        if damage == "escape/outlier count":
            return _reframe(stream, n - 1)
        if damage == "outlier stream truncated":
            return _reframe(stream, n, cut=8)
        count = stream.index(b"HUF1") + 9  # magic, flags, nsyms | nvalues
        nvalues = int.from_bytes(stream[count : count + 8], "little")
        return stream[:count] + (nvalues - 1).to_bytes(8, "little") + stream[count + 8 :]

    @pytest.mark.parametrize(
        "damage", ["escape/outlier count", "outlier stream truncated", "decoded symbol count"]
    )
    def test_raises_alone_and_in_a_batch(self, damage, monkeypatch):
        bad = self._damaged(damage)
        codec = SZCompressor()
        good = [codec.compress(make_smooth_field((8, 16, 16), seed=seed)) for seed in range(2)]
        handed = []

        def spy(bodies):
            decoded = huffman.huffman_decode_many(bodies)
            handed.extend((symbols, symbols.copy()) for symbols, _ in decoded)
            return decoded

        monkeypatch.setattr(sz, "huffman_decode_many", spy)
        with pytest.raises(CorruptStreamError, match=damage):
            codec.decompress(bad)
        for k in range(len(good) + 1):
            with pytest.raises(CorruptStreamError, match=damage):
                codec.decompress_many(good[:k] + [bad] + good[k:])
        # Good streams around it are rebuilt (written) first; the damaged
        # one's symbols, alone and at each of the three positions, are not.
        n = parse_stream_info(bad).n_values
        bad_symbols = [(got, kept) for got, kept in handed if got.size in (n, n - 1)]
        assert len(bad_symbols) == len(good) + 2
        assert all(np.array_equal(got, kept) for got, kept in bad_symbols)


class TestLayoutChecks:
    """The version byte and the trailing fields are read: each damage
    raises its own message, alone and at every position of a batch, before
    the batch's lane pass."""

    @staticmethod
    def _damaged(damage: str) -> bytes:
        codec = SZCompressor(1e-3, "abs")
        stream = codec.compress(make_smooth_field((16, 16, 32), noise=0.1, seed=5))
        info, body_off = sz._parse_header(stream)
        assert info.version == 1 and info.wrapped_nbytes < info.body_nbytes
        fields = list(sz._HEADER.unpack_from(stream, 4))
        if damage == "unknown sz layout version":
            fields[3] = b"\x02"
        elif damage == "wrapped length exceeds":
            fields[9] = info.body_nbytes + 1
        elif damage == "checksum mismatch":  # one bit of the raw bitstream
            flipped = bytearray(stream)
            flipped[-20] ^= 0x10
            return bytes(flipped)
        else:  # a version 0 stream whose trailing u64 is not 0
            stream = _as_v0(stream)
            fields = list(sz._HEADER.unpack_from(stream, 4))
            fields[10] = 1
        return stream[:4] + sz._HEADER.pack(*fields) + stream[4 + sz._HEADER.size :]

    @pytest.mark.parametrize(
        "damage",
        [
            "unknown sz layout version",
            "wrapped length exceeds",
            "checksum mismatch",
            "version 0 header has a nonzero trailing field",
        ],
    )
    def test_raises_alone_and_in_a_batch(self, damage, monkeypatch):
        bad = self._damaged(damage)
        codec = SZCompressor()
        good = [codec.compress(make_smooth_field((8, 16, 16), seed=seed)) for seed in range(2)]
        expected = [a.tobytes() for a in codec.decompress_many(good)]
        passes = []
        monkeypatch.setattr(sz, "huffman_decode_many", lambda bodies: passes.append(bodies))
        with pytest.raises(CorruptStreamError, match=damage):
            codec.decompress(bad)
        for k in range(len(good) + 1):
            with pytest.raises(CorruptStreamError, match=damage):
                codec.decompress_many(good[:k] + [bad] + good[k:])
        assert passes == []
        monkeypatch.undo()
        assert [a.tobytes() for a in codec.decompress_many(good)] == expected

    def test_a_wrapped_part_past_4_gib_is_refused(self, monkeypatch):
        # The header stores its length in 32 bits.
        class Huge(bytes):
            def __len__(self):
                return 1 << 32

        monkeypatch.setattr(sz, "lossless_compress", lambda *args: Huge())
        with pytest.raises(CompressionError, match="exceeds 4 GiB"):
            SZCompressor().compress(make_smooth_field((8, 8, 8)))

    def test_every_flipped_byte_of_the_raw_part_is_caught(self):
        codec = SZCompressor(1e-3, "abs")
        stream = codec.compress(make_smooth_field((16, 16, 32), noise=0.1, seed=5))
        info = parse_stream_info(stream)
        for at in range(info.total_nbytes - info.body_nbytes + info.wrapped_nbytes, len(stream)):
            flipped = bytearray(stream)
            flipped[at] ^= 1 << (at % 8)
            with pytest.raises(CorruptStreamError, match="checksum mismatch"):
                codec.decompress(bytes(flipped))


class TestSkewRule:
    """The bitstream is wrapped exactly when one symbol holds at least half
    of the partition (``huffman.skewed``)."""

    def test_a_skewed_field_keeps_its_ratio(self):
        # At a 10x bound most deltas are 0: below one bit a value, which no
        # Huffman bitstream reaches alone (ratio 32 for float32).
        g = NyxGenerator((48, 48, 48), seed=12)
        data = g.field("baryon_density")
        codec = SZCompressor(bound=10 * g.error_bound("baryon_density"), mode="abs")
        stream = codec.compress(data)
        info = parse_stream_info(stream)
        assert info.wrapped_nbytes == info.body_nbytes
        assert data.nbytes / len(stream) > 32
        assert np.max(np.abs(codec.decompress(stream) - data)) <= codec.max_error() * (1 + 1e-9)

    def test_a_spread_stream_carries_its_bitstream_verbatim(self):
        # Radius 256 escapes 502 deltas: outliers inside the wrap too.
        codec = SZCompressor(1e-3, "abs", radius=256)
        stream = codec.compress(make_smooth_field((16, 16, 32), noise=0.1, seed=5))
        info, body_off = sz._parse_header(stream)
        assert info.n_outliers == 502
        symbols, _ = huffman.huffman_decode(_v0_body(stream))
        assert not huffman.skewed(np.bincount(symbols))
        table, bits, skewed = huffman.huffman_encode_parts(symbols, 2 * 256 + 1)
        assert not skewed
        assert stream[body_off + info.wrapped_nbytes :] == bits
        inner, _ = lossless_decompress(stream[body_off : body_off + info.wrapped_nbytes])
        assert inner[: len(table)] == table and len(inner) == len(table) + 8 * 502

    def test_the_rule_is_half(self):
        assert huffman.skewed(np.array([0, 5, 5]))
        assert not huffman.skewed(np.array([4, 5, 2]))
        assert not huffman.skewed(np.zeros(3, dtype=np.int64))


class TestDecodeBuffers:
    """The rebuild writes the Huffman stage's buffer in place: each stream
    must own its slice, and each result its memory."""

    @staticmethod
    def _streams() -> list[bytes]:
        a = SZCompressor(1e-3, "abs").compress(make_smooth_field((12, 20, 24), seed=1))
        b = SZCompressor(1e-3, "abs", radius=4).compress(
            make_smooth_field((12, 20, 24), noise=0.1, seed=2, dtype=np.float64)
        )
        assert parse_stream_info(b).n_outliers > 0
        return [a, b, a]

    def test_batch_equals_each_stream_alone(self):
        codec = SZCompressor()
        streams = self._streams()
        alone = [codec.decompress(s).tobytes() for s in streams]
        batched = codec.decompress_many(streams)
        assert [r.tobytes() for r in batched] == alone
        for k, r in enumerate(batched):
            assert r.base is None and r.flags.owndata
            assert not any(np.shares_memory(r, other) for other in batched[k + 1 :])

    def test_oracle_owned_buffers_decode_the_same(self, monkeypatch):
        codec = SZCompressor()
        streams = self._streams()
        lanes = [r.tobytes() for r in codec.decompress_many(streams)]
        monkeypatch.setattr(huffman, "_lane_pass", lambda streams, codes: [None] * len(streams))
        assert [codec.decompress(s).tobytes() for s in streams] == lanes
        assert [r.tobytes() for r in codec.decompress_many(streams)] == lanes

    def test_peak_allocation_of_one_decode(self):
        # A 2 MiB float32 partition: desymbolize, integrate and dequantize
        # add no partition-sized temporary beyond the result.  The peak is
        # 2.9x the int64 value bytes here, 4.6x when each stage allocated.
        data = make_smooth_field((64, 64, 128))
        codec = SZCompressor(1e-3, "abs")
        stream = codec.compress(data)
        tracemalloc.start()
        try:
            codec.decompress(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * data.size, f"{peak / (8 * data.size):.2f}x the int64 value bytes"
