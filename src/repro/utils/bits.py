"""Vectorized variable-length bit packing.

The Huffman encoder needs to concatenate, per element, a code of 1..28 bits
into a contiguous bitstream.  Doing this element-by-element in Python is far
too slow for multi-megabyte partitions, so :func:`pack_varlen_codes` performs
the whole pack with numpy.  It first joins neighbouring codes two by two
(two codes of at most 28 bits make at most 56, inside the 57-bit limit of
one element), so the three steps run on half as many elements:

1. compute each element's starting bit offset (``cumsum`` of code lengths)
   and shift every code to its in-word position,
2. OR together the codes that start in the same 64-bit word with one
   ``np.bitwise_or.reduceat`` over the word boundaries (offsets are disjoint,
   so OR-accumulation is exact; a code is shorter than a word, so every word
   has a code starting in it except possibly the last),
3. OR into the next word the high bits of the one code per word that can
   cross its end: the last code starting there.

Huffman codes are length limited to 15 bits (more only for partitions
with more than 2**15 distinct symbols: ceil(log2) of their count), far
inside the 28-bit limit.  Each partition-sized intermediate is allocated
once, and the codes are shifted in the packer's own copy.

Bit order is **LSB-first within each 64-bit little-endian word**, i.e. the
bit at global position ``p`` lives in word ``p >> 6`` at in-word position
``p & 63``.  :class:`BitReader` consumes the same layout.

The scalar :class:`BitWriter`/:class:`BitReader` pair implements the same
format one field at a time; it is used for headers and by the decoders, and
serves as the differential-testing oracle for the vectorized packer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError

_WORD_BITS = 64

#: Longest code :func:`pack_varlen_codes` takes: it joins every code with its
#: neighbour, and two such codes make at most 56 bits, inside the 57-bit
#: limit of one element.
_PAIR_BITS = 28


def pack_varlen_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack variable-length codes into an LSB-first bitstream.

    Parameters
    ----------
    codes:
        ``uint64`` array; element ``i`` holds the code value in its low
        ``lengths[i]`` bits.  Bits above ``lengths[i]`` must be zero.
    lengths:
        integer array of code lengths in ``[1, 28]``, any integer dtype
        (the Huffman encoder passes the ``uint8`` lengths it gathers).

    Returns
    -------
    (payload, total_bits):
        ``payload`` is the packed little-endian byte string, sized to the
        minimal whole number of 64-bit words; ``total_bits`` is the exact
        number of meaningful bits.

    Codes are packed two to an element (see the module docstring).
    Neither ``codes`` nor ``lengths`` is written.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    lengths = np.ascontiguousarray(lengths)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    codes, lengths = codes.ravel(), lengths.ravel()
    if codes.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > _PAIR_BITS:
        raise ValueError(f"code lengths must be in [1, {_PAIR_BITS}]")
    return _pack(*_pair(codes, lengths))


def _pair(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join codes ``2k`` and ``2k + 1`` into one: the second above the first.

    Returns the joined codes and their ``int64`` lengths.  The lengths are
    checked to lie in ``[1, 28]``, so casting them is exact."""
    half = codes.size // 2
    odd = codes.size % 2
    first_len, second_len = lengths[: 2 * half : 2], lengths[1 : 2 * half : 2]
    joined = np.empty(half + odd, dtype=np.uint64)
    np.left_shift(
        codes[1 : 2 * half : 2], first_len, out=joined[:half], dtype=np.uint64, casting="unsafe"
    )
    joined[:half] |= codes[: 2 * half : 2]
    joined_len = np.empty(half + odd, dtype=np.int64)
    np.add(first_len, second_len, out=joined_len[:half], dtype=np.int64, casting="unsafe")
    if odd:
        joined[-1] = codes[-1]
        joined_len[-1] = lengths[-1]
    return joined, joined_len


def _pack(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """The three packing steps on joined codes of <= 56 bits; ``codes`` is
    the caller's scratch and is shifted in place."""
    starts = np.cumsum(lengths)
    total_bits = int(starts[-1])
    starts -= lengths
    word_idx = starts >> 6
    starts &= 63
    shift = starts.view(np.uint64)

    # Only the last code starting in a word can cross into the next one.
    last = np.flatnonzero(word_idx[1:] != word_idx[:-1])
    first = np.concatenate(([0], last + 1))
    last = np.append(last, codes.size - 1)
    # Bits of the code above (64 - shift).  ``code >> (64 - shift)`` is UB
    # for shift == 0 in C; numpy uint64 shifts by 64 also wrap, so split it
    # into two well-defined shifts.  Taken before ``codes`` is shifted.
    spill = (codes[last] >> np.uint64(1)) >> (np.uint64(63) - shift[last])
    codes <<= shift
    nwords = (total_bits + _WORD_BITS - 1) // _WORD_BITS
    # One word past the final start: the final spill, or a guard word.
    words = np.zeros(first.size + 1, dtype=np.uint64)
    np.bitwise_or.reduceat(codes, first, out=words[:-1])
    words[1:] |= spill
    return words[:nwords].tobytes(), total_bits


class BitWriter:
    """Scalar LSB-first bit writer producing the same layout as the packer."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0
        self._chunks: list[bytes] = []

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return 8 * sum(len(c) for c in self._chunks) + self._nbits

    def write(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``."""
        if nbits < 0 or nbits > 64:
            raise ValueError("nbits must be in [0, 64]")
        if nbits == 0:
            return
        value &= (1 << nbits) - 1
        self._acc |= value << self._nbits
        self._nbits += nbits
        while self._nbits >= 8:
            self._chunks.append(bytes((self._acc & 0xFF,)))
            self._acc >>= 8
            self._nbits -= 8

    def getvalue(self) -> bytes:
        """Return the stream, flushing any partial final byte (zero padded)."""
        tail = b""
        if self._nbits:
            tail = bytes((self._acc & 0xFF,))
        return b"".join(self._chunks) + tail


class BitReader:
    """Scalar LSB-first bit reader over a packed byte string."""

    def __init__(self, payload: bytes, total_bits: int | None = None) -> None:
        self._data = payload
        self._pos = 0
        self._limit = 8 * len(payload) if total_bits is None else total_bits
        if self._limit > 8 * len(payload):
            raise CorruptStreamError("declared bit length exceeds payload size")

    @property
    def position(self) -> int:
        """Current global bit position."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of readable bits left."""
        return self._limit - self._pos

    def read(self, nbits: int) -> int:
        """Read ``nbits`` bits and return them as an unsigned integer."""
        if nbits < 0 or nbits > 64:
            raise ValueError("nbits must be in [0, 64]")
        if nbits > self.remaining:
            raise CorruptStreamError("bitstream exhausted")
        out = 0
        got = 0
        pos = self._pos
        while got < nbits:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, nbits - got)
            chunk = (byte >> (pos & 7)) & ((1 << take) - 1)
            out |= chunk << got
            got += take
            pos += take
        self._pos = pos
        return out

    def peek(self, nbits: int) -> int:
        """Read up to ``nbits`` bits without consuming them.

        If fewer than ``nbits`` remain, the missing high bits are zero; this
        simplifies table-driven Huffman decoding near the end of the stream.
        """
        take = min(nbits, self.remaining)
        pos = self._pos
        out = self.read(take)
        self._pos = pos
        return out

    def skip(self, nbits: int) -> None:
        """Advance the cursor by ``nbits`` bits."""
        if nbits > self.remaining:
            raise CorruptStreamError("bitstream exhausted")
        self._pos += nbits

    def seek(self, pos: int) -> None:
        """Move the cursor to absolute bit position ``pos``."""
        if pos < 0 or pos > self._limit:
            raise CorruptStreamError("seek outside bitstream")
        self._pos = pos
