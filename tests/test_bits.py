"""Tests for the vectorized bit packer and scalar bit reader/writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptStreamError
from repro.utils.bits import BitReader, BitWriter, pack_varlen_codes


class TestBitWriterReader:
    def test_roundtrip_single_field(self):
        w = BitWriter()
        w.write(0b1011, 4)
        r = BitReader(w.getvalue(), 4)
        assert r.read(4) == 0b1011

    def test_roundtrip_many_fields(self):
        fields = [(i * 2654435761 % (1 << (1 + i % 30)), 1 + i % 30) for i in range(200)]
        w = BitWriter()
        for v, n in fields:
            w.write(v, n)
        r = BitReader(w.getvalue(), w.bit_length)
        for v, n in fields:
            assert r.read(n) == v

    def test_write_masks_high_bits(self):
        w = BitWriter()
        w.write(0xFF, 4)  # only low 4 bits kept
        r = BitReader(w.getvalue(), 4)
        assert r.read(4) == 0xF

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(123, 0)
        assert w.bit_length == 0
        assert w.getvalue() == b""

    def test_bit_length_tracks_partial_bytes(self):
        w = BitWriter()
        w.write(1, 3)
        assert w.bit_length == 3
        w.write(1, 13)
        assert w.bit_length == 16

    def test_invalid_nbits_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0, 65)
        with pytest.raises(ValueError):
            w.write(0, -1)

    def test_reader_exhaustion_raises(self):
        r = BitReader(b"\xff", 8)
        r.read(8)
        with pytest.raises(CorruptStreamError):
            r.read(1)

    def test_reader_limit_enforced(self):
        with pytest.raises(CorruptStreamError):
            BitReader(b"\xff", 9)

    def test_peek_does_not_consume(self):
        r = BitReader(b"\xa5", 8)
        assert r.peek(4) == 0x5
        assert r.position == 0
        assert r.read(8) == 0xA5

    def test_peek_past_end_zero_fills(self):
        r = BitReader(b"\x01", 1)
        assert r.peek(8) == 1

    def test_skip(self):
        r = BitReader(b"\xf0", 8)
        r.skip(4)
        assert r.read(4) == 0xF
        with pytest.raises(CorruptStreamError):
            r.skip(1)

    def test_seek_repositions_absolutely(self):
        r = BitReader(b"\xa5", 8)
        r.read(6)
        r.seek(0)
        assert r.position == 0
        assert r.read(8) == 0xA5
        r.seek(4)
        assert r.read(4) == 0xA

    def test_seek_to_limit_then_read_exhausts(self):
        r = BitReader(b"\xff", 8)
        r.seek(8)
        with pytest.raises(CorruptStreamError):
            r.read(1)

    def test_seek_out_of_range_rejected(self):
        r = BitReader(b"\xff", 8)
        with pytest.raises(CorruptStreamError):
            r.seek(-1)
        with pytest.raises(CorruptStreamError):
            r.seek(9)
        assert r.position == 0  # failed seeks leave the cursor alone


class TestPackVarlenCodes:
    def test_empty_input(self):
        payload, nbits = pack_varlen_codes(np.zeros(0, np.uint64), np.zeros(0, np.int64))
        assert payload == b""
        assert nbits == 0

    def test_matches_scalar_writer(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 29, 500)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        _assert_matches_bit_writer(codes.tolist(), lengths.tolist())

    def test_word_boundary_spanning(self):
        # The third 28-bit code crosses the first word boundary.
        codes = np.array([(1 << 28) - 1, 0, (1 << 28) - 1, 0b1010101], dtype=np.uint64)
        lengths = np.array([28, 28, 28, 7], dtype=np.int64)
        payload, nbits = pack_varlen_codes(codes, lengths)
        r = BitReader(payload, nbits)
        for c, n in zip(codes.tolist(), lengths.tolist()):
            assert r.read(n) == c

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_varlen_codes(np.zeros(3, np.uint64), np.ones(2, np.int64))

    def test_length_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_varlen_codes(np.zeros(1, np.uint64), np.array([29]))
        with pytest.raises(ValueError):
            pack_varlen_codes(np.zeros(1, np.uint64), np.array([0]))

    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 28) - 1), st.integers(1, 28)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, fields):
        codes = np.array([v & ((1 << n) - 1) for v, n in fields], dtype=np.uint64)
        lengths = np.array([n for _, n in fields], dtype=np.int64)
        payload, nbits = pack_varlen_codes(codes, lengths)
        r = BitReader(payload, nbits)
        for c, l in zip(codes.tolist(), lengths.tolist()):
            assert r.read(int(l)) == int(c)
        assert r.remaining == 0


def _assert_matches_bit_writer(codes: list[int], lengths: list[int]) -> None:
    """The packer's bytes are ``BitWriter``'s, zero-padded to whole words."""
    payload, nbits = pack_varlen_codes(
        np.array(codes, dtype=np.uint64), np.array(lengths, dtype=np.int64)
    )
    w = BitWriter()
    for c, n in zip(codes, lengths):
        w.write(c, n)
    assert nbits == w.bit_length == sum(lengths)
    assert len(payload) == 8 * (-(-nbits // 64))
    assert payload == w.getvalue().ljust(len(payload), b"\0")


class TestPackerVsBitWriter:
    """Differential suite over the full 1..28 range and the word seams."""

    @pytest.mark.parametrize(
        "lengths",
        [
            [28, 4, 28, 4],  # total an exact multiple of 64
            [28, 28, 4, 4] * 2,  # joined codes of 56 and 8 bits
            [1] * 128,
            [28] * 64,
            [28, 22, 14, 5],  # a code ending on bit 63
            [28, 28, 7, 1, 28],  # a one-bit code on bit 63
            [28, 28, 7, 28],  # a 28-bit code starting at bit 63, last in the stream
            [28, 28, 7, 28, 28, 28],  # ... and mid-stream
            [28, 28, 7, 2],  # a final word that holds only a spill
            [28, 28, 8, 28, 28, 8],  # the spill's word gets a start as well
            [28],
            [1],
        ],
    )
    def test_adversarial_alignments(self, lengths):
        ones = [(1 << n) - 1 for n in lengths]
        _assert_matches_bit_writer(ones, lengths)
        _assert_matches_bit_writer([v & 0x5555555 for v in ones], lengths)
        _assert_matches_bit_writer([1 << (n - 1) for n in lengths], lengths)

    @pytest.mark.parametrize(
        "lengths",
        [
            [28],  # one code: nothing to pair
            [28, 28],  # the longest pair, 56 bits
            [28, 28, 28],  # odd count: the last code stands alone
            [28] * 7 + [1],
            [1, 1],  # the shortest pair
            [27, 28, 28],
            [1, 28] * 5 + [3],
            [27, 1, 28, 28, 1],
        ],
    )
    def test_pairing_seam(self, lengths):
        ones = [(1 << n) - 1 for n in lengths]
        _assert_matches_bit_writer(ones, lengths)
        _assert_matches_bit_writer([v & 0x5555555 for v in ones], lengths)
        _assert_matches_bit_writer([1 << (n - 1) for n in lengths], lengths)

    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 28) - 1), st.integers(22, 28)),
            min_size=1,
            max_size=301,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_codes_around_the_pairing_limit(self, fields):
        # Codes near the 28-bit limit: joined elements of 44 to 56 bits,
        # most crossing a word; odd and even counts alike.
        lengths = [n for _, n in fields]
        _assert_matches_bit_writer([v & ((1 << n) - 1) for v, n in fields], lengths)

    def test_inputs_unchanged(self):
        for n in (1, 28):
            codes = np.full(5, (1 << n) - 1, dtype=np.uint64)
            lengths = np.full(5, n, dtype=np.int64)
            pack_varlen_codes(codes, lengths)
            assert codes.tolist() == [(1 << n) - 1] * 5 and lengths.tolist() == [n] * 5

    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 28) - 1), st.integers(1, 28)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_full_length_range(self, fields):
        lengths = [n for _, n in fields]
        _assert_matches_bit_writer([v & ((1 << n) - 1) for v, n in fields], lengths)

    @given(
        st.lists(st.integers(1, 28), min_size=1, max_size=200),
        st.integers(1, 28),
    )
    @settings(max_examples=100, deadline=None)
    def test_padded_to_a_word_multiple(self, lengths, last):
        # Top the stream up with one-bit codes to a whole number of words
        # (or one ``last``-bit code short of it), so the tail lands on a seam.
        lengths = lengths + [1] * (-(sum(lengths) + last) % 64) + [last]
        _assert_matches_bit_writer([(1 << n) - 1 for n in lengths], lengths)
