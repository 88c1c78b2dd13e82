"""Tests for canonical Huffman coding."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.huffman import (
    _PAIR_BITS,
    MAX_CODE_LEN,
    TABLE_BITS,
    HuffmanCode,
    _canonical_codes,
    _decode_lanes,
    _decode_scalar,
    _parse_stream,
    _read_header,
    build_code,
    huffman_decode,
    huffman_decode_many,
    huffman_decode_scalar,
    huffman_encode,
    serialize_code,
)
from repro.errors import CorruptStreamError

from helpers import golden_field, make_smooth_field, reference_build_code


class TestBuildCode:
    def test_two_symbols_one_bit_each(self):
        code = build_code(np.array([5, 3]))
        assert code.lengths.tolist() == [1, 1]

    def test_single_symbol_gets_one_bit(self):
        code = build_code(np.array([0, 10, 0]))
        assert code.lengths[1] == 1
        assert code.lengths[0] == 0 and code.lengths[2] == 0

    def test_empty_frequencies(self):
        code = build_code(np.zeros(4, dtype=np.int64))
        assert code.max_length == 0

    def test_skewed_distribution_shorter_codes_for_frequent(self):
        freqs = np.array([1000, 100, 10, 1])
        code = build_code(freqs)
        lens = code.lengths
        assert lens[0] <= lens[1] <= lens[2]

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(0, 1000, 64)
        code = build_code(freqs)
        present = code.lengths[code.lengths > 0]
        kraft = np.sum(2.0 ** (-present.astype(float)))
        assert kraft <= 1.0 + 1e-12

    def test_mean_length_near_entropy(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(32))
        freqs = np.rint(p * 100000).astype(np.int64)
        freqs[freqs == 0] = 1
        code = build_code(freqs)
        probs = freqs / freqs.sum()
        entropy = -np.sum(probs * np.log2(probs))
        mean = code.mean_length(freqs)
        assert entropy <= mean + 1e-9
        assert mean < entropy + 1.0  # Huffman is within 1 bit of entropy

    def test_length_limit_on_extreme_skew(self):
        # Fibonacci-like frequencies give maximally deep trees (here 51
        # levels): the code stops at the limit and stays complete.
        code = build_code(np.array(_fibonacci(MAX_CODE_LEN + 4)))
        assert code.max_length == _PAIR_BITS
        present = code.lengths[code.lengths > 0]
        assert np.sum(2.0 ** (-present.astype(float))) == 1.0

    def test_negative_frequencies_rejected(self):
        with pytest.raises(ValueError):
            build_code(np.array([1, -1]))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            build_code(np.ones((2, 2)))


def _fibonacci(n: int) -> list[int]:
    out, a, b = [], 1, 2
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


class TestBuildCodeVsHeapOracle:
    """Pin ``build_code`` elementwise to the retired heap construction.

    Code lengths under equal frequencies depend on the merge order, and
    every stream's bytes depend on the lengths, so the two-queue builder
    must reproduce the heap's ``(freq, node_id)`` pop order exactly, and
    the length limit the reference's one-code-at-a-time repair.
    """

    @staticmethod
    def _assert_same(freqs) -> None:
        freqs = np.asarray(freqs, dtype=np.int64)
        code = build_code(freqs)
        lengths, codes = reference_build_code(freqs)
        assert code.lengths.dtype == lengths.dtype
        assert code.codes.dtype == codes.dtype
        assert np.array_equal(code.lengths, lengths)
        assert np.array_equal(code.codes, codes)

    @given(st.lists(st.integers(0, 4), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_histograms(self, freqs):
        self._assert_same(freqs)

    @given(n=st.integers(0, 300), weight=st.integers(1, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_all_equal(self, n, weight):
        self._assert_same([weight] * n)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_powers_of_two(self, exponents):
        self._assert_same([1 << e for e in exponents])

    @given(st.lists(st.integers(0, 2**40), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_histograms(self, freqs):
        self._assert_same(freqs)

    @pytest.mark.parametrize("n", range(MAX_CODE_LEN - 2, MAX_CODE_LEN + 9))
    def test_fibonacci_skew_around_the_cap(self, n):
        # Unlimited, these trees are n - 1 levels deep, around MAX_CODE_LEN.
        fib = _fibonacci(n)
        assert int(reference_build_code(fib, None)[0].max()) == n - 1
        assert build_code(np.array(fib)).max_length == _PAIR_BITS
        self._assert_same(fib)
        self._assert_same(fib[::-1])
        self._assert_same([0, *fib, 0, 1, 1])

    def test_single_symbol_and_empty(self):
        self._assert_same([0, 0, 9, 0])
        self._assert_same([0, 0, 0])
        self._assert_same([])

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 3000),
        flat=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_sparse_in_full_alphabet(self, seed, n, flat):
        rng = np.random.default_rng(seed)
        freqs = np.zeros(65537, dtype=np.int64)
        where = rng.choice(freqs.size, n, replace=False)
        freqs[where] = 7 if flat else rng.geometric(0.02, n)
        self._assert_same(freqs)


class TestLengthLimit:
    """A code past the limit comes out complete, no longer than the limit
    and ordered: listed in (optimal length, symbol) order, its lengths
    never fall.  A code within the limit keeps its optimal lengths."""

    @staticmethod
    def _assert_limited(freqs) -> None:
        freqs = np.asarray(freqs, dtype=np.int64)
        present = np.flatnonzero(freqs)
        limit = max(_PAIR_BITS, (present.size - 1).bit_length())
        optimal = reference_build_code(freqs, None)[0]
        lengths = build_code(freqs).lengths
        if int(optimal.max()) <= limit:
            assert np.array_equal(lengths, optimal)
            return
        lens = lengths[present].astype(np.int64)
        assert int(lens.max()) == limit
        assert int(np.sum(np.left_shift(1, limit - lens))) == 1 << limit  # complete
        ranked = sorted(present.tolist(), key=lambda s: (int(optimal[s]), s))
        assert np.all(np.diff(lengths[ranked].astype(np.int64)) >= 0)
        assert freqs @ lengths >= freqs @ optimal.astype(np.int64)

    @given(
        depth=st.integers(_PAIR_BITS + 1, 60),
        extra=st.lists(st.integers(1, 10**4), max_size=300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_deep_trees(self, depth, extra, seed):
        freqs = np.array(_fibonacci(depth) + extra, dtype=np.int64)
        np.random.default_rng(seed).shuffle(freqs)
        self._assert_limited(freqs)

    def test_more_symbols_than_the_limit_holds(self):
        # 40,030 symbols need 16 bits: the limit rises to that, no further.
        freqs = np.concatenate([np.ones(40000, np.int64), _fibonacci(30)])
        assert build_code(freqs).max_length == 16
        self._assert_limited(freqs)


def _blob_with_lengths(lengths, nvalues: int = 4) -> bytes:
    """A stream whose serialized table is exactly ``lengths``."""
    import struct

    lengths = np.asarray(lengths, dtype=np.uint8)
    code = HuffmanCode(lengths=lengths, codes=np.zeros(lengths.size, np.uint64))
    return serialize_code(code, nvalues) + struct.pack("<Q", 64) + bytes(8)


class TestCorruptLengthTable:
    """A damaged length table fails loudly in both decoders."""

    @pytest.mark.parametrize("decode", [huffman_decode, huffman_decode_scalar])
    @pytest.mark.parametrize(
        "lengths",
        [
            [200, 200, 200, 200],  # used to die in an OverflowError
            [MAX_CODE_LEN + 1, 1],
            [1, 1, 1, 1],  # Kraft sum 2: used to decode to wrong symbols
            [1, 2, 2, 3],
            [MAX_CODE_LEN] * 3 + [1, 1],
        ],
    )
    def test_rejected(self, decode, lengths):
        with pytest.raises(CorruptStreamError):
            decode(_blob_with_lengths(lengths))

    @pytest.mark.parametrize(
        "lengths",
        [
            [1, 1],
            [0, 1, 0],  # the single-symbol code (Kraft sum 1/2)
            [2, 2, 2, 2],
            # What the encoder wrote before codes were limited: a fixed-length
            # fallback over five symbols, and codes up to the cap.
            [3, 3, 3, 3, 3],
            [1, 2, MAX_CODE_LEN, MAX_CODE_LEN],
        ],
    )
    def test_what_the_encoder_emits_is_accepted(self, lengths):
        code, nvalues, _ = _read_header(_blob_with_lengths(lengths))
        assert code.lengths.tolist() == lengths and nvalues == 4


class TestSerialization:
    def test_roundtrip(self):
        code = build_code(np.array([7, 1, 0, 3, 3]))
        blob = serialize_code(code, 14)
        restored, nvalues, consumed = _read_header(blob + b"extra")
        assert nvalues == 14
        assert consumed == len(blob)
        assert np.array_equal(restored.lengths, code.lengths)
        assert np.array_equal(_canonical_codes(restored.lengths), code.codes)

    def test_truncated_header_rejected(self):
        with pytest.raises(CorruptStreamError):
            _read_header(b"HU")

    def test_bad_magic_rejected(self):
        code = build_code(np.array([1, 1]))
        blob = bytearray(serialize_code(code, 2))
        blob[0] = ord("X")
        with pytest.raises(CorruptStreamError):
            _read_header(bytes(blob))


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        symbols = np.array([0, 1, 1, 2, 0, 0, 3], dtype=np.int64)
        blob = huffman_encode(symbols, 4)
        out, consumed = huffman_decode(blob)
        assert np.array_equal(out, symbols)
        assert consumed == len(blob)

    def test_roundtrip_large_peaked(self):
        rng = np.random.default_rng(2)
        symbols = np.clip(rng.normal(512, 5, 50000), 0, 1023).astype(np.int64)
        blob = huffman_encode(symbols, 1024)
        out, _ = huffman_decode(blob)
        assert np.array_equal(out, symbols)

    def test_roundtrip_single_unique_symbol(self):
        symbols = np.full(100, 7, dtype=np.int64)
        blob = huffman_encode(symbols, 16)
        out, _ = huffman_decode(blob)
        assert np.array_equal(out, symbols)
        # Degenerate stream should be tiny: ~1 bit/symbol plus table.
        assert len(blob) < 64

    def test_roundtrip_empty(self):
        blob = huffman_encode(np.zeros(0, dtype=np.int64), 8)
        out, consumed = huffman_decode(blob)
        assert out.size == 0
        assert consumed == len(blob)

    def test_embedded_in_larger_buffer(self):
        symbols = np.array([1, 2, 3] * 50, dtype=np.int64)
        blob = huffman_encode(symbols, 8)
        out, consumed = huffman_decode(blob + b"trailing-data")
        assert np.array_equal(out, symbols)
        assert consumed == len(blob)

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ValueError):
            huffman_encode(np.array([5]), 4)
        with pytest.raises(ValueError):
            huffman_encode(np.array([-1]), 4)

    def test_compression_beats_fixed_width_on_skew(self):
        rng = np.random.default_rng(3)
        symbols = np.where(rng.random(20000) < 0.95, 0, rng.integers(1, 256, 20000))
        blob = huffman_encode(symbols.astype(np.int64), 256)
        assert len(blob) < 20000  # << 1 byte/symbol

    def test_long_code_path(self):
        # Construct frequencies that force codes longer than TABLE_BITS so
        # the slow decode path is exercised (but below the fixed fallback).
        n = 20
        freqs_syms = []
        a, b = 1, 2
        for i in range(n):
            freqs_syms.extend([i] * a)
            a, b = b, a + b
        symbols = np.array(freqs_syms, dtype=np.int64)
        blob = huffman_encode(symbols, n)
        out, _ = huffman_decode(blob)
        assert np.array_equal(np.sort(out), np.sort(symbols))

    @given(
        st.lists(st.integers(0, 31), min_size=0, max_size=2000),
        st.integers(32, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, syms, nsymbols):
        symbols = np.array(syms, dtype=np.int64)
        blob = huffman_encode(symbols, nsymbols)
        out, consumed = huffman_decode(blob)
        assert np.array_equal(out, symbols)
        assert consumed == len(blob)


class TestOccupiedWindow:
    """``huffman_encode`` builds its code over ``[0, max]`` or, for fewer
    symbols than ``min``, over ``[min, max]``; either blob must equal one
    built over the whole alphabet."""

    @staticmethod
    def _full_alphabet_blob(symbols: np.ndarray, nsymbols: int) -> bytes:
        return _encode_with_code(build_code(np.bincount(symbols, minlength=nsymbols)), symbols)

    @pytest.mark.parametrize(
        ("nsymbols", "lo", "hi", "n"),
        [
            (65537, 32700, 32840, 20000),  # an SZ histogram around the radius
            (65537, 65520, 65537, 300),  # a window at the top of the alphabet
            (65537, 0, 40, 300),  # and at the bottom (the escape symbol)
            (9, 4, 5, 17),  # one symbol present
            (3, 0, 3, 2),
            (5001, 3000, 3100, 4000),  # more symbols than min: no shift
            (300, 100, 200, 1000),  # more symbols than the alphabet
        ],
    )
    def test_windows(self, nsymbols, lo, hi, n):
        symbols = np.random.default_rng(n).integers(lo, hi, n)
        blob = huffman_encode(symbols, nsymbols)
        assert blob == self._full_alphabet_blob(symbols, nsymbols)
        assert np.array_equal(huffman_decode(blob)[0], symbols)

    def test_limited_code_window(self):
        # The limiter ranks the present symbols, so a window of the alphabet
        # limits a 17-level tree exactly as the whole alphabet does.
        symbols = _deep_tree_symbols(18) + 30000
        blob = huffman_encode(symbols, 65537)
        assert _parse_stream(blob)[0].max_length == _PAIR_BITS
        assert blob == self._full_alphabet_blob(symbols, 65537)

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=500), st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_property_equals_full_alphabet(self, syms, offset):
        symbols = np.array(syms, dtype=np.int64) + offset
        assert huffman_encode(symbols, 5001) == self._full_alphabet_blob(symbols, 5001)


def _deep_tree_symbols(nlevels: int) -> np.ndarray:
    """Symbols with Fibonacci-like frequencies: a maximally deep tree.

    ``nlevels`` controls the depth — above ~``TABLE_BITS`` levels the rare
    symbols get codes longer than the decode table covers, exercising the
    long-code walker path.  Fibonacci counts grow exponentially, so keep
    ``nlevels`` modest (each extra level ~1.6×s the array).
    """
    rng = np.random.default_rng(nlevels)
    symbols = np.repeat(np.arange(nlevels, dtype=np.int64), _fibonacci(nlevels))
    rng.shuffle(symbols)
    return symbols


def _encode_with_code(code, symbols: np.ndarray) -> bytes:
    """Serialize ``symbols`` under an explicitly chosen ``code``.

    Mirrors :func:`huffman_encode`'s blob layout but with a caller-supplied
    code, so tests can exercise code shapes ``build_code`` no longer
    builds: the longer codes of streams written before codes were limited,
    incomplete codes of damaged headers.  The packer takes codes of at
    most 28 bits, so a longer one goes in as two pieces, low bits first.
    """
    import struct

    from repro.utils.bits import pack_varlen_codes

    codes, lengths = code.codes[symbols], code.lengths[symbols].astype(np.int64)
    low = np.minimum(lengths, 28).astype(np.uint64)
    pieces = np.stack([codes & ((np.uint64(1) << low) - np.uint64(1)), codes >> low], axis=1)
    piece_lengths = np.stack([low.astype(np.int64), lengths - low.astype(np.int64)], axis=1)
    keep = piece_lengths > 0
    head = serialize_code(code, symbols.size)
    payload, total_bits = pack_varlen_codes(pieces[keep], piece_lengths[keep])
    return head + struct.pack("<Q", total_bits) + payload


def _unlimited_code(freqs) -> HuffmanCode:
    """The optimal code without the length limit: what the encoder built
    before codes were limited."""
    lengths, codes = reference_build_code(freqs, None)
    return HuffmanCode(lengths, codes)


def _lane_decode(code, nvalues, total_bits, payload):
    """The lane decoder on one parsed stream, a batch of one (the
    differential tests hand it payloads ``_parse_stream`` would refuse)."""
    return _decode_lanes([(code, nvalues, total_bits, payload)])[0]


class TestDifferentialVsScalarOracle:
    """Pin the vectorized decoder byte-for-byte to the scalar oracle.

    The scalar per-symbol loop is retained as ``huffman_decode_scalar``
    precisely so this suite can hold the hop-table decoder to bit-exact
    equivalence across every code-shape regime: skewed table-only codes,
    long codes past ``TABLE_BITS``, and the code shapes of streams written
    before codes were limited (past ``_PAIR_BITS``, fixed-length).
    """

    def _assert_identical(self, symbols: np.ndarray, nsymbols: int) -> None:
        blob = huffman_encode(symbols, nsymbols)
        fast, consumed_fast = huffman_decode(blob)
        slow, consumed_slow = huffman_decode_scalar(blob)
        assert consumed_fast == consumed_slow == len(blob)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, symbols)
        # Also run the lane kernel on the parsed stream directly, so an
        # oracle fall-back inside huffman_decode cannot mask a kernel bug.
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        if nvalues:
            assert np.array_equal(
                _lane_decode(code, nvalues, total_bits, payload), symbols
            )

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.5, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_skewed_distributions(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        symbols = np.clip(rng.normal(512, scale, n), 0, 1023).astype(np.int64)
        self._assert_identical(symbols, 1024)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_uniform_and_sparse_alphabets(self, seed):
        rng = np.random.default_rng(seed)
        nsymbols = int(rng.integers(2, 300))
        n = int(rng.integers(1, 3000))
        symbols = rng.integers(0, nsymbols, n).astype(np.int64)
        self._assert_identical(symbols, nsymbols)

    @given(nlevels=st.integers(TABLE_BITS + 2, TABLE_BITS + 12))
    @settings(max_examples=10, deadline=None)
    def test_long_code_path(self, nlevels):
        symbols = _deep_tree_symbols(nlevels)
        code = build_code(np.bincount(symbols, minlength=nlevels))
        assert code.max_length > TABLE_BITS  # the regime under test
        self._assert_identical(symbols, nlevels)

    def test_very_long_codes_near_cap(self):
        # Codes approaching MAX_CODE_LEN only come from streams written
        # before codes were limited, under counts no array holds: encode
        # under the unlimited code of such counts instead.
        n = MAX_CODE_LEN
        deep = _unlimited_code(_fibonacci(n))
        assert deep.max_length == MAX_CODE_LEN - 1
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, n, 4000).astype(np.int64)
        blob = _encode_with_code(deep, symbols)
        fast, _ = huffman_decode(blob)
        slow, _ = huffman_decode_scalar(blob)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, symbols)

    def test_fixed_fallback(self):
        # Before codes were limited, counts past the depth cap got a
        # fixed-length code, flagged 1 in the header: the flag is not read
        # and the code is one like any other.
        nlevels = MAX_CODE_LEN + 6
        lengths = np.full(nlevels, 6, dtype=np.uint8)
        fixed = HuffmanCode(lengths, _canonical_codes(lengths))
        rng = np.random.default_rng(13)
        symbols = rng.integers(0, nlevels, 5000).astype(np.int64)
        blob = bytearray(_encode_with_code(fixed, symbols))
        blob[4] = 1  # the fixed flag
        blob = bytes(blob)
        fast, _ = huffman_decode(blob)
        slow, _ = huffman_decode_scalar(blob)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, symbols)

    def test_large_stream_routes_through_vectorized(self):
        # Many lanes per stream, long warm-ups: equality with the oracle
        # here is the acceptance check at scale.
        rng = np.random.default_rng(7)
        symbols = np.clip(rng.normal(100, 3, 200_000), 0, 255).astype(np.int64)
        blob = huffman_encode(symbols, 256)
        fast, _ = huffman_decode(blob)
        slow, _ = huffman_decode_scalar(blob)
        assert np.array_equal(fast, slow)

    @given(seed=st.integers(0, 2**32 - 1), junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_trailing_garbage_ignored(self, seed, junk):
        # Regression for the exact word-rounded payload slice: bytes after
        # ceil(total_bits/64) words belong to the *next* stream in the
        # container and must affect neither decoder nor ``consumed``.
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 64, 2000).astype(np.int64)
        blob = huffman_encode(symbols, 64)
        for decode in (huffman_decode, huffman_decode_scalar):
            out, consumed = decode(blob + junk)
            assert consumed == len(blob)
            assert np.array_equal(out, symbols)

    def test_payload_slice_is_word_rounded_exactly(self):
        symbols = np.arange(1000, dtype=np.int64) % 17
        blob = huffman_encode(symbols, 17)
        _, _, total_bits, payload, consumed = _parse_stream(blob)
        assert len(payload) == (-(-total_bits // 64)) * 8
        assert consumed == len(blob)

    @given(frac=st.floats(0.0, 0.999), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_truncated_payload_same_error_both_decoders(self, frac, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 128, 3000).astype(np.int64)
        blob = huffman_encode(symbols, 128)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        cut = int(len(payload) * frac) // 8 * 8  # keep whole words
        if cut == len(payload):
            return
        short = payload[:cut]
        bits = cut * 8
        outcomes = []
        for decode in (_decode_scalar, _lane_decode):
            try:
                out = decode(code, nvalues, min(total_bits, bits), short)
                outcomes.append(("ok", out.tobytes()))
            except CorruptStreamError as exc:
                outcomes.append(("err", str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_truncated_blob_rejected(self):
        symbols = np.ones(500, dtype=np.int64)
        blob = huffman_encode(symbols, 4)
        with pytest.raises(CorruptStreamError):
            huffman_decode(blob[:-8])
        with pytest.raises(CorruptStreamError):
            huffman_decode_scalar(blob[:-8])


def _set_nvalues(blob: bytes, nvalues: int) -> bytes:
    """``blob`` with the header's value count overwritten."""
    import struct

    return blob[:9] + struct.pack("<Q", nvalues) + blob[17:]  # magic, flags, nsyms | nvalues


class TestCorruptValueCount:
    """A damaged value count fails loudly before anything is sized from it."""

    @pytest.mark.parametrize("decode", [huffman_decode, huffman_decode_scalar])
    @pytest.mark.parametrize("nvalues", [2**31, 2**50, 2**64 - 1])
    def test_absurd_count_rejected(self, decode, nvalues):
        # Used to be a bare MemoryError ("Unable to allocate 8.00 PiB") from the
        # scalar decoder and a walk over the whole stream from the other.
        symbols = np.arange(5000, dtype=np.int64) % 23
        with pytest.raises(CorruptStreamError, match="value count"):
            decode(_set_nvalues(huffman_encode(symbols, 23), nvalues))

    @pytest.mark.parametrize("decode", [huffman_decode, huffman_decode_scalar])
    def test_count_one_past_the_bit_count_rejected(self, decode):
        blob = huffman_encode(np.zeros(2000, dtype=np.int64), 2)  # one bit a symbol
        out, _ = decode(blob)
        assert out.size == 2000
        with pytest.raises(CorruptStreamError, match="value count"):
            decode(_set_nvalues(blob, 2001))


_LANE_CLASSES = (
    "uniform2",
    "uniform4",
    "uniform256",
    "factor2",
    "near_constant",
    "regime_change",
    "wide_alphabet",
)
#: Not a lane class: inside a long run of one symbol with a code of two bits
#: or more every parse repeats and none ever meet, so the repair rounds run
#: out and the oracle decodes the stream.
_LONG_RUN = "long_run"


@functools.lru_cache(maxsize=None)
def _lane_stream(name: str, n: int) -> tuple[np.ndarray, int, bytes]:
    """``n`` symbols of one of the code shapes the lane decoder treats
    differently: (symbols, alphabet size, encoded blob).  Cached: read-only."""
    rng = np.random.default_rng([(_LANE_CLASSES + (_LONG_RUN,)).index(name), n])

    def rare(m):  # one dominant symbol, the rest 8 to 10 bits
        return np.where(rng.random(m) < 0.97, 0, rng.integers(1, 300, m))

    def wide(m):  # thousands of symbols, a sixth of the stream past TABLE_BITS, 15-bit codes
        return np.clip(np.rint(rng.standard_t(2.5, m) * 400 + 8000), 0, 16383).astype(np.int64)

    if name.startswith("uniform"):
        nsymbols = int(name[len("uniform") :])
        symbols = rng.integers(0, nsymbols, n)
    elif name == "factor2":
        symbols, nsymbols = rng.choice(7, n, p=[0.25] * 3 + [0.0625] * 4), 7
    elif name == "near_constant":
        symbols, nsymbols = rare(n), 300
    elif name == "regime_change":
        symbols, nsymbols = np.concatenate([rare(n // 2), wide(n - n // 2)]), 16384
    elif name == "wide_alphabet":
        symbols, nsymbols = wide(n), 16384
    else:  # _LONG_RUN: a third of the stream is one symbol with a 2-bit code
        symbols = np.clip(np.rint(rng.normal(0, 40, n)), -300, 300).astype(np.int64) + 301
        symbols[n // 3 : 2 * n // 3] = 301
        nsymbols = 602
    symbols.setflags(write=False)
    return symbols, nsymbols, huffman_encode(symbols, nsymbols)


def _outcome(decode, *args):
    """What a decoder did with a stream: its bytes, or its error text."""
    try:
        return "ok", decode(*args).tobytes()
    except CorruptStreamError as exc:
        return "error", str(exc)


class TestLaneDecoderAtScale:
    """The differential suite at the sizes where lanes exist (2**16 symbols
    and up: hundreds to thousands of lanes, junctions and repair rounds)."""

    N = 1 << 16

    @staticmethod
    def _assert_matches_oracle(blob: bytes, expected: np.ndarray) -> None:
        fast, consumed_fast = huffman_decode(blob)
        slow, consumed_slow = huffman_decode_scalar(blob)
        assert consumed_fast == consumed_slow
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, expected)

    @pytest.mark.parametrize("name", _LANE_CLASSES + (_LONG_RUN,))
    def test_code_shapes(self, name):
        symbols, nsymbols, blob = _lane_stream(name, self.N)
        lengths = _parse_stream(blob)[0].lengths
        present = lengths[lengths > 0]
        # Each stream is in the regime it is named for.
        if name.startswith("uniform"):
            assert present.min() == present.max() == int(np.log2(nsymbols))
        elif name == "factor2":
            assert sorted(present.tolist()) == [2, 2, 2, 4, 4, 4, 4]
        elif name == "near_constant":
            assert lengths[0] == 1 and present[1:].min() >= 8
        elif name == "wide_alphabet":
            assert present.size >= 3000
            assert np.mean(lengths[symbols] > TABLE_BITS) > 0.03
        elif name == _LONG_RUN:
            assert lengths[301] >= 2  # a 1-bit code would be in step anywhere
        self._assert_matches_oracle(blob, symbols)

    def test_half_a_million_equal_length_symbols(self):
        # No warm-up ever brings an 8-bit-only parse into step: alignment must.
        symbols, _, blob = _lane_stream("uniform256", 1 << 19)
        self._assert_matches_oracle(blob, symbols)

    def test_deep_fibonacci_code_near_the_cap(self):
        # Depth MAX_CODE_LEN - 1: the deepest code the builder kept before
        # codes were limited.
        nlevels = MAX_CODE_LEN
        deep = _unlimited_code(_fibonacci(nlevels))
        assert deep.max_length == MAX_CODE_LEN - 1
        rng = np.random.default_rng(3)
        weights = np.array(_fibonacci(nlevels), dtype=np.float64)
        symbols = rng.choice(nlevels, self.N, p=weights / weights.sum())
        where = rng.integers(0, self.N, 400)
        symbols[where] = rng.integers(0, 16, 400)  # the 32- to 47-bit codes
        self._assert_matches_oracle(_encode_with_code(deep, symbols), symbols)

    @pytest.mark.parametrize("name", ["uniform256", "wide_alphabet"])
    def test_count_lowered_below_what_the_stream_holds(self, name):
        symbols, _, blob = _lane_stream(name, self.N)
        for keep in (self.N // 2, 1500):
            self._assert_matches_oracle(_set_nvalues(blob, keep), symbols[:keep])

    @pytest.mark.parametrize("name", ["factor2", "wide_alphabet"])
    def test_hostile_padding_after_the_last_bit(self, name):
        symbols, _, blob = _lane_stream(name, self.N)
        blob = bytearray(blob)
        total_bits = _parse_stream(bytes(blob))[2]
        assert total_bits % 64  # there is padding to fill
        for bit in range(len(blob) * 8 - (-total_bits % 64), len(blob) * 8):
            blob[bit >> 3] |= 1 << (bit & 7)
        self._assert_matches_oracle(bytes(blob), symbols)

    @pytest.mark.parametrize("name", ["uniform4", _LONG_RUN])
    @pytest.mark.parametrize("fraction", [0.0, 0.37, 0.999])
    def test_truncation_same_outcome_both_decoders(self, name, fraction):
        code, nvalues, total_bits, payload, _ = _parse_stream(_lane_stream(name, self.N)[2])
        cut = int(len(payload) * fraction) // 8 * 8
        args = (code, nvalues, min(total_bits, cut * 8), payload[:cut])
        outcome = _outcome(_decode_scalar, *args)
        assert outcome[0] == "error"
        assert _outcome(_lane_decode, *args) == outcome

    @pytest.mark.parametrize("name", ["factor2", "near_constant", "wide_alphabet"])
    def test_bit_flip_same_outcome_both_decoders(self, name):
        code, nvalues, total_bits, payload, _ = _parse_stream(_lane_stream(name, self.N)[2])
        damaged = bytearray(payload)
        bit = int(np.random.default_rng(len(name)).integers(0, total_bits))
        damaged[bit >> 3] ^= 1 << (bit & 7)
        args = (code, nvalues, total_bits, bytes(damaged))
        assert _outcome(_lane_decode, *args) == _outcome(_decode_scalar, *args)

    def test_bits_shaved_off_the_end_same_outcome(self):
        # The last symbol now ends past total_bits.
        blob = _lane_stream("wide_alphabet", self.N)[2]
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        args = (code, nvalues, total_bits - 3, payload)
        outcome = _outcome(_decode_scalar, *args)
        assert outcome == ("error", "bitstream exhausted")
        assert _outcome(_lane_decode, *args) == outcome

    def test_symbol_missing_from_the_table_same_outcome(self):
        # An incomplete code: the stream now holds a pattern no code spells.
        code, nvalues, total_bits, payload, _ = _parse_stream(_lane_stream("factor2", self.N)[2])
        lengths = code.lengths.copy()
        lengths[5] = 0
        holed = _read_header(_blob_with_lengths(lengths))[0]
        args = (holed, nvalues, total_bits, payload)
        outcome = _outcome(_decode_scalar, *args)
        assert outcome[0] == "error"
        assert _outcome(_lane_decode, *args) == outcome


#: Unlike streams side by side: 15-bit codes (the widest table), equal
#: lengths, factor-2 lengths, a long run the oracle ends up decoding, a
#: stream of a few lanes and an empty one.
_MIXED_BATCH = (
    ("wide_alphabet", 1 << 17),
    ("uniform256", 1 << 13),
    ("factor2", 1 << 13),
    (_LONG_RUN, 1 << 13),
    ("uniform4", 600),
    ("uniform2", 0),
)


def _damaged(blob: bytes, damage: str) -> bytes:
    """``blob`` cut short, with a present symbol's code dropped from its table
    (an invalid pattern mid-stream), or with its bit count lowered so the
    last symbol ends past it."""
    nsyms = int.from_bytes(blob[5:9], "little")
    if damage == "truncated":
        return blob[:-8]
    if damage == "hole":
        at = 17 + int(np.flatnonzero(np.frombuffer(blob, np.uint8, nsyms, 17))[-1])
        return blob[:at] + b"\x00" + blob[at + 1 :]
    at = 17 + nsyms
    total_bits = int.from_bytes(blob[at : at + 8], "little")
    return blob[:at] + (total_bits - 3).to_bytes(8, "little") + blob[at + 8 :]


class TestBatchedDecoder:
    """``huffman_decode_many`` holds each stream of a batch to the oracle,
    whatever else shares the batch."""

    def test_mixed_batch_equals_the_oracle_in_any_order(self):
        blobs = {key: _lane_stream(*key)[2] for key in _MIXED_BATCH}
        # What the oracle returns for these streams is the encoder's input
        # (``TestLaneDecoderAtScale`` pins the two together), which costs no
        # half-second oracle run over the wide stream.  Every stream at
        # every position, and every neighbour on both sides.
        n = len(_MIXED_BATCH)
        orders = [_MIXED_BATCH[i:] + _MIXED_BATCH[:i] for i in range(n)]
        for order in orders + [_MIXED_BATCH[::-1]]:
            decoded = huffman_decode_many([blobs[key] for key in order])
            for key, (out, consumed) in zip(order, decoded):
                assert consumed == len(blobs[key])
                assert out.dtype == np.int64 and np.array_equal(out, _lane_stream(*key)[0]), key

    def test_a_batch_past_the_pass_limit_splits_into_passes(self, monkeypatch):
        # Every stream weighs at least 2**16, so 17 of them are past
        # ``_BATCH_VALUES``: the call decodes in two lane passes, the first
        # on the wide one's 15-bit table, and gathers them in order.
        from repro.compression import huffman

        small = [(_LANE_CLASSES[i % len(_LANE_CLASSES)], 1 << 13) for i in range(16)]
        keys = small[:8] + [_MIXED_BATCH[0]] + small[8:]
        blobs = [_lane_stream(*key)[2] for key in keys]
        assert _parse_stream(blobs[8])[0].max_length == _PAIR_BITS
        lane_pass, loads = huffman._lane_pass, []

        def counted(streams, codes):
            loads.append(sum(max(s[1], huffman._STREAM_WEIGHT) for s in streams))
            return lane_pass(streams, codes)

        monkeypatch.setattr(huffman, "_lane_pass", counted)
        decoded = huffman_decode_many(blobs)
        assert loads == [huffman._BATCH_VALUES, 1 << 17]
        # What the oracle returns for these streams is the encoder's input.
        for key, blob, (out, consumed) in zip(keys, blobs, decoded):
            assert consumed == len(blob)
            assert out.dtype == np.int64 and np.array_equal(out, _lane_stream(*key)[0]), key

    @pytest.mark.parametrize("damage", ["truncated", "hole", "shaved"])
    def test_a_damaged_stream_raises_its_own_error_at_any_position(self, damage):
        good = [_lane_stream(*key)[2] for key in _MIXED_BATCH]
        bad = _damaged(_lane_stream("factor2", 1 << 13)[2], damage)
        with pytest.raises(CorruptStreamError) as alone:
            huffman_decode(bad)
        for k in range(len(good) + 1):
            with pytest.raises(CorruptStreamError) as batched:
                huffman_decode_many(good[:k] + [bad] + good[k:])
            assert str(batched.value) == str(alone.value)


def _unpack(entry: np.ndarray) -> tuple[np.ndarray, ...]:
    """A lane table entry's fields: (symbols taken, first symbol, second
    symbol, first code's length, bits consumed)."""
    from repro.compression import huffman

    second = (entry << (huffman._FIRST - huffman._SECOND)) >> huffman._FIRST
    return (
        entry >> huffman._TAKEN & 3,
        entry >> huffman._FIRST,
        second,
        entry >> 6 & 63,
        entry & 63,
    )


def _record_tables(monkeypatch) -> list:
    """Every lane pass's tables from here on, in order."""
    from repro.compression import huffman

    lane_tables, seen = huffman._lane_tables, []

    def recorded(codes, mean_bits):
        seen.append(lane_tables(codes, mean_bits))
        return seen[-1]

    monkeypatch.setattr(huffman, "_lane_tables", recorded)
    return seen


def _pair_reference(lengths: np.ndarray, width: int) -> list:
    """The pair table spelled out slot by slot from the canonical codes:
    per ``width``-bit window (MSB first) None where no code of at most
    ``width`` bits starts it, else ``(symbol, length, following)`` with
    ``following`` the ``(symbol, length)`` of a whole code in the bits
    left, or None."""
    codes = _canonical_codes(lengths)
    msb = {}
    for sym in np.flatnonzero(lengths):
        ln = int(lengths[sym])
        msb[int(format(int(codes[sym]), f"0{ln}b")[::-1], 2), ln] = int(sym)

    def match(bits: int, nbits: int):
        for ln in range(1, nbits + 1):
            sym = msb.get((bits >> (nbits - ln), ln))
            if sym is not None:
                return sym, ln
        return None

    rows = []
    for slot in range(1 << width):
        hit = match(slot, width)
        if hit is not None:
            rest = width - hit[1]
            hit += (match(slot & ((1 << rest) - 1), rest),)
        rows.append(hit)
    return rows


#: Codes whose pair tables the reference spells out, and the kinds of slot
#: each table must show: an incomplete code (its pseudo-code, 1101 to 1111,
#: is followed by the code 10 in slot 1101) and factor-2 lengths, whose
#: pairs all fill the window exactly.
_PAIR_CODES = {
    "holed": ([1, 2, 4, 0], {"pair", "full", "pseudo"}),
    "factor2": ([2, 2, 2, 4, 4, 4, 4], {"full"}),
}
#: 8-bit codes beside 1- and 3-bit ones: with ``_PAIR_BITS`` lowered to 6,
#: longer than any lane table may be.
_FAR_CODE = [1, 3, 3] + [8] * 64


class TestPairStep:
    """Two symbols a lane-step: the pair table, the lane exits and the
    scatter, each held to the canonical codes or to the scalar oracle."""

    @staticmethod
    def _tables(lengths, mean_bits: float = 1.0):
        from repro.compression import huffman

        return huffman._lane_tables([huffman._lane_code(np.asarray(lengths, np.uint8))], mean_bits)

    @pytest.mark.parametrize("name", sorted(_PAIR_CODES))
    def test_table_against_the_canonical_codes(self, name):
        lengths, kinds = _PAIR_CODES[name]
        lengths = np.array(lengths, dtype=np.uint8)
        table, width, pairs = self._tables(lengths)
        assert pairs and width == int(lengths.max())
        assert (table != 0).all()  # every slot advances its lane
        taken, first, second, first_len, advance = _unpack(table)
        seen = set()
        for slot, row in enumerate(_pair_reference(lengths, width)):
            if row is None:  # the pseudo-code
                seen.add("pseudo")
                assert first[slot] == -1 and taken[slot] == 1
                continue
            sym, ln, following = row
            assert (first[slot], first_len[slot]) == (sym, ln)
            if following is None:  # what follows is a pseudo-code or overruns
                assert (taken[slot], advance[slot]) == (1, ln)
            else:
                assert (taken[slot], second[slot]) == (2, following[0])
                assert advance[slot] == ln + following[1]
                seen.add("full" if advance[slot] == width else "pair")
        assert seen == kinds

    def test_exits_at_every_end_match_the_scalar_boundaries(self):
        # A lane stops at its first boundary at or past ``end``: when ``end``
        # falls inside a pair, after the pair's first symbol.  One lane per
        # end bit, from bit 0 and from symbol boundaries further on.
        from repro.compression import huffman

        symbols, _, blob = _lane_stream("near_constant", 1 << 12)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        stream = (code, nvalues, total_bits, payload)
        tables = huffman._lane_tables([huffman._lane_code(code.lengths)], total_bits / nvalues)
        assert tables[2] and (_unpack(tables[0])[0] == 2).any()
        words, _ = huffman._lane_words([stream])
        bounds = np.append(0, np.cumsum(code.lengths[symbols].astype(np.int64)))
        starts = np.concatenate([np.zeros(600, np.int64), np.repeat(bounds[1000:1100:7], 40)])
        end = np.concatenate([np.arange(1, 601), np.tile(np.arange(1, 41), 15)]) + starts
        exits, counts, _ = huffman._run_lanes(words, tables, starts, end, None)
        k = np.searchsorted(bounds, end)
        assert np.array_equal(exits, bounds[k])
        assert np.array_equal(counts, k - np.searchsorted(bounds, starts))

    @pytest.mark.parametrize("name", ["holed", "far"])
    def test_streams_under_the_codes_equal_the_oracle(self, name, monkeypatch):
        # "far": codes longer than the lowered ``_PAIR_BITS`` are the
        # oracle's; a lane table narrower than a code would spin.
        from repro.compression import huffman

        if name == "far":
            monkeypatch.setattr(huffman, "_PAIR_BITS", 6)
            lengths = _FAR_CODE
        else:
            lengths = _PAIR_CODES[name][0]
        present = np.flatnonzero(lengths)
        weights = 0.5 ** np.array(lengths, dtype=np.float64)[present]
        rng = np.random.default_rng(len(name))
        symbols = present[rng.choice(present.size, 1 << 15, p=weights / weights.sum())]
        lengths = np.array(lengths, dtype=np.uint8)
        code = HuffmanCode(lengths, _canonical_codes(lengths))
        blob = _encode_with_code(code, symbols)
        out = huffman_decode(blob)[0]
        assert np.array_equal(out, huffman_decode_scalar(blob)[0])
        assert np.array_equal(out, symbols)

    def test_a_pseudo_code_mid_stream_same_outcome(self):
        # The incomplete table of a damaged header: a pattern no code spells
        # halfway through, decoded on the pair table.
        lengths = np.array([1, 2, 4, 4, 4, 4], dtype=np.uint8)
        rng = np.random.default_rng(5)
        symbols = rng.choice(3, 1 << 15, p=[0.5, 0.3, 0.2])
        symbols[1 << 14] = 3
        blob = _encode_with_code(HuffmanCode(lengths, _canonical_codes(lengths)), symbols)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        holed = _read_header(_blob_with_lengths(np.array([1, 2, 4, 0, 0, 0], np.uint8)))[0]
        assert self._tables(holed.lengths, total_bits / nvalues)[2]
        args = (holed, nvalues, total_bits, payload)
        outcome = _outcome(_decode_scalar, *args)
        assert outcome[0] == "error"
        assert _outcome(_lane_decode, *args) == outcome

    def test_one_batch_of_paired_and_unpaired_streams(self, monkeypatch):
        # 8-bit codes never pair in a 12-bit window; the batch's mean pairs
        # the others.  Every stream at every position.
        from repro.compression import huffman

        keys = [("factor2", 1 << 16), ("uniform256", 1 << 13), ("near_constant", 1 << 16)]
        blobs = {key: _lane_stream(*key)[2] for key in keys}
        tables = _record_tables(monkeypatch)
        for order in (keys, keys[1:] + keys[:1], keys[::-1]):
            decoded = huffman_decode_many([blobs[key] for key in order])
            for key, (out, _) in zip(order, decoded):
                assert np.array_equal(out, _lane_stream(*key)[0]), key
            table, width, pairs = tables[-1]
            taken = _unpack(table)[0].reshape(len(order), 1 << width)
            assert pairs and width == 12
            for key, row in zip(order, taken):
                assert (row == 2).any() == (key[0] != "uniform256"), key

    def test_a_repair_round_under_pairs(self, monkeypatch):
        # One lane's warm-up arrives a bit late: its junction fails, a repair
        # round re-runs it from the proven exit, and no oracle is needed.
        from repro.compression import huffman

        symbols, _, blob = _lane_stream("near_constant", 1 << 16)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        run_lanes, runs = huffman._run_lanes, []

        def skewed(words, tables, pos, end, tab, record=False):
            exits, counts, recorded = run_lanes(words, tables, pos, end, tab, record)
            runs.append((record, tables[2], pos.size))
            if not record:
                exits[5] += 1
            return exits, counts, recorded

        monkeypatch.setattr(huffman, "_run_lanes", skewed)
        TestFastPathIsThePath._forbid_oracle(monkeypatch)
        out = _lane_decode(code, nvalues, total_bits, payload)
        assert np.array_equal(out, symbols)
        assert all(pairs for _, pairs, _ in runs)
        assert [record for record, *_ in runs[:2]] == [False, True] and len(runs) >= 3
        assert runs[2][2] < runs[1][2]  # the repair re-runs the bad lanes only


class TestLongCodesTakeTheOracle:
    """A code longer than ``_PAIR_BITS`` (in a stream written before codes
    were limited, or with more than 2**15 distinct symbols) never reaches
    the lane loop, where a table slot of 0 would advance no bit and the loop
    would never end: its stream is the oracle's, and the rest of its batch
    keeps its lane decodes."""

    def test_a_long_code_in_a_mixed_batch(self, monkeypatch):
        from repro.compression import huffman

        old = _deep_tree_symbols(20)
        old_blob = _encode_with_code(_unlimited_code(np.bincount(old)), old)
        assert _parse_stream(old_blob)[0].max_length == 19
        keys = [("factor2", 1 << 13), ("near_constant", 1 << 13), ("wide_alphabet", 1 << 13)]
        blobs = [_lane_stream(*key)[2] for key in keys]
        lane_pass, passes = huffman._lane_pass, []

        def checked(streams, codes):
            assert all(code.max_length <= huffman._PAIR_BITS for code, *_ in streams)
            passes.append(len(streams))
            return lane_pass(streams, codes)

        monkeypatch.setattr(huffman, "_lane_pass", checked)
        tables = _record_tables(monkeypatch)
        calls = TestFastPathIsThePath._count_oracle_calls(monkeypatch)
        for k in range(len(keys) + 1):
            decoded = huffman_decode_many(blobs[:k] + [old_blob] + blobs[k:])
            outs = [out for out, _ in decoded]
            assert np.array_equal(outs.pop(k), old)
            for key, out in zip(keys, outs):
                assert np.array_equal(out, _lane_stream(*key)[0]), key
        assert passes == [len(keys)] * (len(keys) + 1)
        assert [args[1] for args in calls] == [old.size] * (len(keys) + 1)
        for table, width, _ in tables:
            assert width <= huffman._PAIR_BITS and (table != 0).all()

    def test_more_distinct_symbols_than_the_widest_table(self, monkeypatch):
        # 32,769 symbols once each: the limit is the 16 bits that hold them.
        symbols = np.random.default_rng(17).permutation((1 << 15) + 1)
        blob = huffman_encode(symbols, 1 << 16)
        assert _parse_stream(blob)[0].max_length == 16
        calls = TestFastPathIsThePath._count_oracle_calls(monkeypatch)
        assert np.array_equal(huffman_decode(blob)[0], symbols)
        assert len(calls) == 1


class TestFastPathIsThePath:
    """A silent fall-back to the Python loop must not pass for the decoder."""

    @staticmethod
    def _forbid_oracle(monkeypatch) -> None:
        def refuse(*args):
            raise AssertionError("the lane decoder fell back to the scalar oracle")

        monkeypatch.setattr("repro.compression.huffman._decode_scalar", refuse)

    @pytest.mark.parametrize("name", _LANE_CLASSES)
    def test_lanes_decode_without_the_oracle(self, name, monkeypatch):
        symbols, _, blob = _lane_stream(name, 1 << 16)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        self._forbid_oracle(monkeypatch)
        assert np.array_equal(_lane_decode(code, nvalues, total_bits, payload), symbols)

    @pytest.mark.parametrize("edge", [8, 16, 32, 64])
    def test_golden_fields_decode_without_the_oracle(self, edge, monkeypatch):
        # Bit-identity of these decodes is TestGoldenStreams' job (test_sz.py).
        from repro.compression import SZCompressor

        codec = SZCompressor(1e-3, "abs", lossless="none")
        data = golden_field(edge, np.float32, edge)
        stream = codec.compress(data)
        self._forbid_oracle(monkeypatch)
        assert np.max(np.abs(codec.decompress(stream) - data)) <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize(("edge", "pairs"), [(8, False), (16, True), (32, True), (64, True)])
    def test_golden_fields_take_the_pair_table(self, edge, pairs, monkeypatch):
        # ~5 bits a symbol: two fit a 12- to 15-bit window, not the 9-bit
        # window of the 512-value cube.
        from repro.compression import SZCompressor

        codec = SZCompressor(1e-3, "abs", lossless="none")
        stream = codec.compress(golden_field(edge, np.float32, edge))
        tables = _record_tables(monkeypatch)
        self._forbid_oracle(monkeypatch)
        codec.decompress(stream)
        assert [t[2] for t in tables] == [pairs]

    @staticmethod
    def _count_oracle_calls(monkeypatch) -> list:
        from repro.compression import huffman

        oracle, calls = huffman._decode_scalar, []

        def counted(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(huffman, "_decode_scalar", counted)
        return calls

    def test_unprovable_junctions_return_the_oracles_output(self, monkeypatch):
        # Skew every warm-up arrival but lane 0's: each lane then starts on a
        # wrong bit, no junction agrees, and the oracle must decode the stream.
        from repro.compression import huffman

        symbols, _, blob = _lane_stream("wide_alphabet", 1 << 16)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        run_lanes = huffman._run_lanes

        def skewed(words, tables, pos, end, tab, record=False):
            exits, counts, recorded = run_lanes(words, tables, pos, end, tab, record)
            if not record:
                exits[1:] += 1
            return exits, counts, recorded

        monkeypatch.setattr(huffman, "_run_lanes", skewed)
        calls = self._count_oracle_calls(monkeypatch)
        out = _lane_decode(code, nvalues, total_bits, payload)
        assert len(calls) == 1
        assert np.array_equal(out, symbols)

    def test_read_batch_is_one_lane_pass(self, tmp_path, monkeypatch):
        # The benchmark's own partition: four 8,192-value SZ partitions of
        # unlike fields, written through the facade and read back whole, take
        # one warm-up, one main pass and the repair rounds once for the read.
        import repro
        from repro.cache import get_cache
        from repro.compression import huffman

        block = (16, 16, 32)
        mixed = make_smooth_field(block, noise=0.0)
        mixed[4:8, 4:8] += np.random.default_rng(26).normal(0, 0.5, (4, 4, 32)).astype(np.float32)
        kinds = [
            make_smooth_field(block, noise=0.0),
            make_smooth_field(block, noise=0.01, seed=1),
            make_smooth_field(block, noise=0.1, seed=2),
            mixed,
        ]
        halves = (slice(0, 16), slice(16, 32))
        regions = [(a, b, slice(0, 32)) for a in halves for b in halves]
        path = str(tmp_path / "kinds.phd5")
        with repro.open(path, "w", nranks=4) as f:
            ds = f.create_dataset("kinds", (32, 32, 32), np.float32, error_bound=1e-3)
            for region, data in zip(regions, kinds):
                ds[region] = data
        get_cache().clear()
        run_lanes, passes = huffman._run_lanes, []

        def counted(words, tables, pos, end, tab, record=False):
            passes.append((record, np.unique(tab).size))
            return run_lanes(words, tables, pos, end, tab, record)

        monkeypatch.setattr(huffman, "_run_lanes", counted)
        self._forbid_oracle(monkeypatch)
        with repro.open(path) as f:
            out = f["kinds"][...]
        for region, data in zip(regions, kinds):
            assert np.abs(out[region] - data).max() <= 1e-3 + 1e-6
        assert passes[:2] == [(False, 4), (True, 4)]  # lanes of all four partitions
        assert all(record for record, _ in passes[2:])
        assert len(passes) - 2 <= huffman._REPAIR_ROUNDS

    def test_repair_rounds_run_out_on_a_long_run(self, monkeypatch):
        symbols, _, blob = _lane_stream(_LONG_RUN, 1 << 16)
        code, nvalues, total_bits, payload, _ = _parse_stream(blob)
        calls = self._count_oracle_calls(monkeypatch)
        out = _lane_decode(code, nvalues, total_bits, payload)
        assert len(calls) == 1
        assert np.array_equal(out, symbols)
