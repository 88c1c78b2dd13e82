"""Canonical Huffman coding over bounded integer alphabets.

SZ entropy-codes quantization symbols with a Huffman coder whose tree size is
capped by the quantizer radius (the paper leans on this cap to explain the
*lower* bound on compression throughput, and on tiny trees at high error
bounds for the *upper* bound).  This module provides:

* :func:`build_code` — Huffman code construction from symbol frequencies,
  canonicalized (codes assigned in (length, symbol) order) so the table
  serializes as just the per-symbol lengths.  Construction is O(symbols
  present), not O(alphabet): compact the histogram once, merge the tree
  from two queues, fill the full-alphabet arrays with one scatter.  Among
  equal weights a leaf merges before an internal node, leaves in symbol
  order and internal nodes in creation order — the rule that fixes the
  code lengths, and so the bytes of every stream;
* :func:`huffman_encode` — vectorized encoding using
  :func:`repro.utils.bits.pack_varlen_codes`;
* :func:`huffman_decode` — lane-parallel decoding, NumPy playing the SIMD
  lanes of a GPU decoder.  A Huffman decoder started on a wrong bit falls
  into step with the true parse within a few dozen symbols, so the stream
  is cut into lanes by bit offset, every lane starts a warm-up before its
  cut, and all lanes advance in lockstep, one symbol per lane per
  whole-array iteration, keeping the symbols that start inside their own
  span.  The result is proved, not assumed: lane 0 starts at bit 0, and a
  lane is right exactly when its first kept position is where the lane
  before it left its span.  A lane whose junction disagrees is re-run from
  that proven exit; a stream that stays unproven, shows an invalid pattern
  or runs short goes to the scalar decoder, which so raises every error;
* :func:`huffman_decode_scalar` — the retained per-symbol reference
  decoder: the differential-testing oracle for the lane decoder (the same
  pattern :mod:`repro.utils.bits` uses for the packer) and its fall-back.

Codes are generated MSB-first and stored bit-reversed so the LSB-first
bitstream yields code bits in natural order — the same trick DEFLATE uses.

If the optimal code for a very skewed distribution exceeds ``MAX_CODE_LEN``
bits, construction falls back to a fixed-length code over the observed
alphabet; this keeps the packer's two-word invariant and bounds worst-case
decode work.  The fallback is lossless, merely suboptimal, and is recorded in
the serialized table.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError
from repro.utils.bits import BitReader, pack_varlen_codes

#: Single-level decode-table width (bits).  4096 entries; codes at or below
#: this length decode with one lookup.
TABLE_BITS = 12

#: Hard cap on Huffman code length; above this we fall back to fixed-length.
MAX_CODE_LEN = 48

_HDR = struct.Struct("<4sBIQ")  # magic, flags, nsyms, nvalues
_MAGIC = b"HUF1"


@dataclass
class HuffmanCode:
    """A canonical code: per-symbol lengths plus derived encode/decode tables."""

    lengths: np.ndarray  # uint8 per symbol (0 = symbol absent)
    codes: np.ndarray  # uint64 per symbol, bit-reversed for LSB-first packing
    fixed: bool = False  # True if the fixed-length fallback was used

    @property
    def nsymbols(self) -> int:
        """Alphabet size (including absent symbols)."""
        return int(self.lengths.size)

    @property
    def max_length(self) -> int:
        """Longest assigned code length (0 for an empty code)."""
        return int(self.lengths.max()) if self.lengths.size else 0

    def mean_length(self, freqs: np.ndarray) -> float:
        """Expected code length under the symbol distribution ``freqs``."""
        total = float(freqs.sum())
        if total == 0:
            return 0.0
        return float((freqs * self.lengths[: freqs.size]).sum()) / total


def _reverse_bits(value: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``value``."""
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


#: ``_BYTE_REV[b]`` is byte ``b`` with its eight bits in reverse order.
_BYTE_REV = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"),
    axis=1,
).ravel()


def _lengths_from_freqs(freqs: np.ndarray) -> np.ndarray:
    """Optimal Huffman code lengths for the given frequency vector.

    Two-queue construction over the present symbols only: leaves sorted by
    (frequency, symbol) and a FIFO of internal nodes, whose weights come
    out in non-decreasing order.  Each step takes the lighter head; a tie
    goes to the leaf, and within a queue to the earlier entry.
    """
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    n = int(nz.size)
    if n == 0:
        return lengths
    if n == 1:
        lengths[nz[0]] = 1
        return lengths
    present = freqs[nz]
    order = np.argsort(present, kind="stable")  # stable: ties by symbol
    weight = present[order].tolist()
    # Nodes 0..n-1 are the sorted leaves and n+1..2n-1 the internal nodes in
    # creation order.  Slot n, and every internal slot not yet created,
    # holds a sentinel heavier than any node, so an exhausted queue loses
    # the compare without a bounds check.
    weight += [sum(weight) + 1] * (n + 1)
    parent = [0] * (2 * n)
    i, j = 0, n + 1
    for k in range(n + 1, 2 * n):
        if weight[i] <= weight[j]:
            a = i
            i += 1
        else:
            a = j
            j += 1
        if weight[i] <= weight[j]:
            b = i
            i += 1
        else:
            b = j
            j += 1
        weight[k] = weight[a] + weight[b]
        parent[a] = parent[b] = k
    # A parent is created after its children, so one descending sweep over
    # the internal nodes sees each parent's depth before its children need
    # it; the leaves then take theirs in one gather.
    depth = [0] * (2 * n)
    for node in range(2 * n - 2, n, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[nz[order]] = np.array(depth)[parent[:n]] + 1
    return lengths


def _fixed_lengths(freqs: np.ndarray) -> np.ndarray:
    """Fixed-length fallback: ceil(log2(#present)) bits for present symbols."""
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nz.size == 0:
        return lengths
    nbits = max(1, int(np.ceil(np.log2(nz.size))) if nz.size > 1 else 1)
    lengths[nz] = nbits
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical (MSB-first) codes, returned bit-reversed per length.

    A symbol's code is its length's first code plus its rank among the
    symbols of that length.  ``lengths`` must satisfy the Kraft inequality
    with no entry above ``MAX_CODE_LEN`` (built codes do;
    :func:`deserialize_code` checks parsed ones), so codes fit 64 bits.
    """
    codes = np.zeros(lengths.size, dtype=np.uint64)
    present = np.flatnonzero(lengths)
    if present.size == 0:
        return codes
    lens = lengths[present]
    order = np.argsort(lens, kind="stable")  # stable: ties by symbol
    counts = np.bincount(lens).tolist()
    # base[ln] = first code of length ln minus the sorted position where
    # that length's run starts: base + sorted position = first code + rank.
    base = [0] * len(counts)
    first = seen = 0
    for ln in range(1, len(counts)):
        first = (first + counts[ln - 1]) << 1
        base[ln] = first - seen
        seen += counts[ln]
    sorted_lens = lens[order]
    msb = np.array(base, dtype=np.int64)[sorted_lens] + np.arange(order.size)
    # Reverse all 64 bits (byte order, then bits within each byte), then
    # drop the low zeros so the code's own bits sit reversed at the bottom.
    flipped = _BYTE_REV[msb.astype("<u8").view(np.uint8).reshape(-1, 8)[:, ::-1]]
    reversed64 = flipped.view("<u8").ravel()
    codes[present[order]] = reversed64 >> (64 - sorted_lens.astype(np.uint64))
    return codes


def _build(freqs: np.ndarray) -> HuffmanCode:
    """:func:`build_code` on an already validated int64 histogram."""
    present = np.flatnonzero(freqs != 0)  # several times faster on a bool mask
    counts = freqs[present]
    lens = _lengths_from_freqs(counts)
    fixed = bool(lens.size) and int(lens.max()) > MAX_CODE_LEN
    if fixed:
        lens = _fixed_lengths(counts)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    codes = np.zeros(freqs.size, dtype=np.uint64)
    lengths[present] = lens
    codes[present] = _canonical_codes(lens)
    return HuffmanCode(lengths=lengths, codes=codes, fixed=fixed)


def build_code(freqs: np.ndarray) -> HuffmanCode:
    """Construct a canonical Huffman code for frequency vector ``freqs``."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be one-dimensional")
    if freqs.size and int(freqs.min()) < 0:
        raise ValueError("frequencies must be non-negative")
    return _build(freqs)


def serialize_code(code: HuffmanCode, nvalues: int) -> bytes:
    """Serialize the code table and payload length into a header blob.

    The canonical property means only the lengths array is needed; the
    decoder rebuilds identical codes.
    """
    flags = 1 if code.fixed else 0
    head = _HDR.pack(_MAGIC, flags, code.nsymbols, nvalues)
    return head + code.lengths.astype(np.uint8).tobytes()


def deserialize_code(blob: bytes) -> tuple[HuffmanCode, int, int]:
    """Parse a header blob; returns (code, nvalues, bytes_consumed)."""
    if len(blob) < _HDR.size:
        raise CorruptStreamError("huffman header truncated")
    magic, flags, nsyms, nvalues = _HDR.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CorruptStreamError("bad huffman magic")
    need = _HDR.size + nsyms
    if len(blob) < need:
        raise CorruptStreamError("huffman length table truncated")
    lengths = np.frombuffer(blob, dtype=np.uint8, count=nsyms, offset=_HDR.size).copy()
    # The encoder never emits a length past the cap or an over-subscribed
    # table (Kraft sum > 1, here in exact units of 2**-MAX_CODE_LEN).
    counts = np.bincount(lengths).tolist()
    if len(counts) > MAX_CODE_LEN + 1:
        raise CorruptStreamError("huffman code length exceeds the cap")
    kraft = sum(c << (MAX_CODE_LEN - ln) for ln, c in enumerate(counts) if ln)
    if kraft > 1 << MAX_CODE_LEN:
        raise CorruptStreamError("huffman length table is over-subscribed")
    codes = _canonical_codes(lengths)
    return HuffmanCode(lengths=lengths, codes=codes, fixed=bool(flags & 1)), nvalues, need


def huffman_encode(symbols: np.ndarray, nsymbols: int) -> bytes:
    """Encode ``symbols`` (ints in [0, nsymbols)) into a self-contained blob.

    Layout: header (magic, flags, alphabet size, value count, lengths table),
    8-byte bit count, packed bitstream.
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.int64).ravel()
    # One pass checks both ends: a negative symbol is huge when unsigned.
    if symbols.size and int(symbols.view(np.uint64).max()) >= nsymbols:
        raise ValueError("symbol out of alphabet range")
    code = _build(np.bincount(symbols, minlength=nsymbols))
    head = serialize_code(code, symbols.size)
    if symbols.size == 0:
        return head + struct.pack("<Q", 0)
    payload, total_bits = pack_varlen_codes(code.codes[symbols], code.lengths[symbols])
    return head + struct.pack("<Q", total_bits) + payload


def _build_decode_tables(
    code: HuffmanCode,
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """Build the single-level lookup table plus long-code dictionary.

    ``table_sym[window]``/``table_len[window]`` decode any code of length
    <= TABLE_BITS in one peek; longer codes fall back to an MSB-first
    incremental walk through ``long_map[(prefix_value, prefix_len)]``.
    """
    size = 1 << TABLE_BITS
    table_sym = np.full(size, -1, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.int64)
    long_map: dict[tuple[int, int], int] = {}
    for sym in np.flatnonzero(code.lengths):
        ln = int(code.lengths[sym])
        rev = int(code.codes[sym])  # LSB-first pattern as it appears in stream
        if ln <= TABLE_BITS:
            step = 1 << ln
            for filler in range(0, size, step):
                table_sym[rev | filler] = sym
                table_len[rev | filler] = ln
        else:
            msb_value = _reverse_bits(rev, ln)
            long_map[(msb_value, ln)] = int(sym)
    return table_sym, table_len, long_map


def _parse_stream(blob: bytes) -> tuple[HuffmanCode, int, int, bytes, int]:
    """Parse header, bit count, and the exact word-rounded payload slice.

    The packer emits whole little-endian 64-bit words, so the payload spans
    exactly ``ceil(total_bits / 64)`` words — computed once here and reused
    for both the bitstream slice and the ``bytes_consumed`` return, so a
    blob embedded in a larger buffer never reads past its own end.
    Returns ``(code, nvalues, total_bits, payload, consumed)``.
    """
    code, nvalues, off = deserialize_code(blob)
    if len(blob) < off + 8:
        raise CorruptStreamError("huffman bit-count field truncated")
    (total_bits,) = struct.unpack_from("<Q", blob, off)
    off += 8
    # Every code is at least one bit: reject a damaged count before any
    # buffer is sized from it.
    if nvalues > total_bits:
        raise CorruptStreamError("huffman value count exceeds the bit count")
    payload_nbytes = (-(-total_bits // 64)) * 8
    if len(blob) < off + payload_nbytes:
        raise CorruptStreamError("huffman payload truncated")
    payload = blob[off : off + payload_nbytes]
    return code, nvalues, total_bits, payload, off + payload_nbytes


def _decode_scalar(code: HuffmanCode, nvalues: int, total_bits: int, payload: bytes) -> np.ndarray:
    """Per-symbol reference decoder (the differential-testing oracle)."""
    out = np.empty(nvalues, dtype=np.int64)
    reader = BitReader(payload, total_bits)
    table_sym_a, table_len_a, long_map = _build_decode_tables(code)
    table_sym = table_sym_a.tolist()
    table_len = table_len_a.tolist()
    # Bind locals for speed; the lane decoder below is the production path,
    # this loop remains the semantics oracle and the fall-back.
    peek = reader.peek
    skip = reader.skip
    read = reader.read
    tbits = TABLE_BITS
    for i in range(nvalues):
        window = peek(tbits)
        sym = table_sym[window]
        if sym >= 0:
            skip(table_len[window])
            out[i] = sym
            continue
        out[i] = _walk_long_code(reader, window, long_map)
    return out


def _walk_long_code(reader: BitReader, window: int, long_map: dict[tuple[int, int], int]) -> int:
    """Decode one code longer than ``TABLE_BITS`` via an MSB-first walk.

    ``window`` is the (possibly zero-padded) ``TABLE_BITS``-bit peek at the
    reader's current position; the reader is advanced past the full code.
    """
    value = 0
    for _ in range(TABLE_BITS):
        value = (value << 1) | (window & 1)
        window >>= 1
    reader.skip(TABLE_BITS)
    length = TABLE_BITS
    while True:
        value = (value << 1) | reader.read(1)
        length += 1
        hit = long_map.get((value, length))
        if hit is not None:
            return hit
        if length > MAX_CODE_LEN + 1:
            raise CorruptStreamError("invalid huffman bitstream")


#: A lane carries between ``_LANE_SYMBOLS_MIN`` and ``_LANE_SYMBOLS_MAX``
#: symbols (longer streams take longer lanes) and starts ``_WARMUP_SYMBOLS``
#: symbols' worth of bits before its cut.
_LANE_SYMBOLS_MIN = 32
_LANE_SYMBOLS_MAX = 128
_WARMUP_SYMBOLS = 48
#: Rounds of re-running out-of-step lanes before the oracle takes the stream.
_REPAIR_ROUNDS = 16


def _lane_tables(code: HuffmanCode) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Decode tables ``(table, starts, entries, gcd)`` in canonical order.

    ``entries[i]`` packs the i-th canonical code as ``(symbol << 6) |
    length`` and ``starts[i]`` is that code left-justified in 64 bits.
    Canonical codes tile the code space contiguously, so
    ``searchsorted(starts, window) - 1`` decodes any code, and repeating
    each code of at most ``TABLE_BITS`` bits over the slots it owns gives
    the first-level ``table`` (entry 0: look further).  What an incomplete
    code leaves uncovered is one last pseudo-code, symbol -1.  Every symbol
    boundary of a stream is a multiple of ``gcd``, the gcd of the lengths.
    """
    present = np.flatnonzero(code.lengths)
    lens = code.lengths[present].astype(np.int64)
    order = np.argsort(lens, kind="stable")  # stable: ties by symbol
    lens = lens[order]
    gcd = int(np.gcd.reduce(lens))
    entries = (present[order] << 6) | lens
    ends = np.cumsum(np.left_shift(1, MAX_CODE_LEN - lens))  # units of 2**-MAX_CODE_LEN
    starts = np.append(0, ends[:-1])
    if int(ends[-1]) < 1 << MAX_CODE_LEN:
        starts = np.append(starts, ends[-1])
        entries = np.append(entries, (-1 << 6) | gcd)
    starts = starts.astype(np.uint64) << np.uint64(64 - MAX_CODE_LEN)
    nshort = int(np.searchsorted(lens, TABLE_BITS, side="right"))
    table = np.zeros(1 << TABLE_BITS, dtype=np.int64)
    short = np.repeat(entries[:nshort], 1 << (TABLE_BITS - lens[:nshort]))
    table[: short.size] = short
    return table, starts, entries, gcd


def _step_lanes(
    stream: np.ndarray, tables: list, pos: np.ndarray, end: np.ndarray, record: bool = False
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Step every lane from ``pos`` to its first symbol boundary at or past ``end``.

    One symbol per lane per iteration, in lockstep; a lane that has arrived
    leaves the working set, so stragglers do not drag the others along.
    Returns the arrival positions, the symbols each lane took and, with
    ``record``, per iteration the decoded entries and whose they are.
    """
    table, starts, entries = tables
    exits = pos.copy()
    counts = np.zeros(pos.size, dtype=np.int64)
    lanes = np.arange(pos.size)
    recorded = []
    two_level = not table.all()
    top = np.uint64(64 - TABLE_BITS)
    step = 0
    while True:
        live = pos < end
        if not live.all():
            exits[lanes[~live]] = pos[~live]
            counts[lanes[~live]] = step
            lanes, pos, end = lanes[live], pos[live], end[live]
            if not lanes.size:
                return exits, counts, recorded
        window = stream[pos >> 4]
        window <<= (pos & 15).view(np.uint64)
        entry = table[(window >> top).view(np.int64)]
        if two_level:
            far = np.flatnonzero(entry == 0)
            if far.size:
                entry[far] = entries[np.searchsorted(starts, window[far], side="right") - 1]
        if record:
            recorded.append((entry, lanes))
        pos = pos + (entry & 63)
        step += 1


def _decode_vectorized(
    code: HuffmanCode, nvalues: int, total_bits: int, payload: bytes
) -> np.ndarray:
    """Lane-parallel decoder; see the module docstring for the scheme.

    Returns exactly what :func:`_decode_scalar` returns, and hands the
    stream to it whenever the junction proof does not close or the stream
    is damaged, so every ``CorruptStreamError`` is the oracle's.
    """
    # ``_parse_stream`` never lets ``nvalues > total_bits`` through: that test
    # is for direct callers (the differential tests pass truncated payloads).
    if nvalues > total_bits or not code.lengths.any():
        return _decode_scalar(code, nvalues, total_bits, payload)
    *tables, gcd = _lane_tables(code)

    # Bit-reversed bytes read MSB-first through an unaligned big-endian view,
    # bits past ``total_bits`` zeroed as BitReader.peek does.  The aligned copy
    # ``stream[i]`` = bits [16 i, 16 i + 64) has 49 >= MAX_CODE_LEN valid bits.
    nbytes = -(-total_bits // 8)
    buf = np.zeros((-(-total_bits // 64) + 2) * 8, dtype=np.uint8)
    buf[:nbytes] = _BYTE_REV[np.frombuffer(payload, dtype=np.uint8, count=nbytes)]
    if total_bits & 7:
        buf[nbytes - 1] &= 0xFF00 >> (total_bits & 7) & 0xFF
    unaligned = np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))
    stream = unaligned[::2].astype(np.uint64)

    # Lanes of equal bit length.  Cuts and warm-up are multiples of the gcd
    # of the code lengths, or equal- and even-length codes would never fall
    # into step.  A header that understates ``nvalues`` must not leave a few
    # lanes to walk the whole stream: expect at most 16 bits a symbol.
    expected = max(nvalues, total_bits >> 4)
    per_lane = min(max(math.isqrt(expected >> 5), _LANE_SYMBOLS_MIN), _LANE_SYMBOLS_MAX)
    span = -(-total_bits // (max(1, expected // per_lane) * gcd)) * gcd
    warm = -(-_WARMUP_SYMBOLS * total_bits // (expected * gcd)) * gcd
    cut = np.arange(0, total_bits, span, dtype=np.int64)
    end = np.minimum(cut + span, total_bits)
    nlanes = cut.size

    first = _step_lanes(stream, tables, np.maximum(cut - warm, 0), cut)[0]
    exits, counts, recorded = _step_lanes(stream, tables, first, end, record=True)
    passes = [(np.arange(nlanes), recorded)]
    final = np.zeros(nlanes, dtype=np.int64)  # the pass holding each lane's symbols
    bad = np.flatnonzero(exits[:-1] != first[1:]) + 1
    # This many lanes out of step after one pass: the code does not synchronise.
    if bad.size > nlanes // 2:
        return _decode_scalar(code, nvalues, total_bits, payload)
    while bad.size:
        if len(passes) > _REPAIR_ROUNDS:
            return _decode_scalar(code, nvalues, total_bits, payload)
        first[bad] = exits[bad - 1]
        exits[bad], counts[bad], recorded = _step_lanes(
            stream, tables, first[bad], end[bad], record=True
        )
        final[bad] = len(passes)
        passes.append((bad, recorded))
        bad = np.flatnonzero(exits[:-1] != first[1:]) + 1

    # Every junction agrees, so the lanes' symbols in lane order are the
    # stream's.  The oracle still owns a stream that runs short, whose last
    # symbol ends past ``total_bits`` or that shows an invalid pattern.
    total = int(counts.sum())
    if total < nvalues or (total == nvalues and int(exits[-1]) > total_bits):
        return _decode_scalar(code, nvalues, total_bits, payload)
    # Lane j's t-th symbol goes to base[j] + t, what a later pass superseded
    # past the end: one scatter per recorded iteration.
    base = np.cumsum(counts) - counts
    out = np.empty(total + max(len(rec) for _, rec in passes), dtype=np.int64)
    for number, (which, recorded) in enumerate(passes):
        dest = np.where(final[which] == number, base[which], total)
        for step, (entry, lanes) in enumerate(recorded):
            out[dest[lanes] + step] = entry
    out = out[:nvalues]
    out >>= 6
    if int(out.min()) < 0:
        return _decode_scalar(code, nvalues, total_bits, payload)
    return out


#: Below this many values there are too few lanes to pay for their warm-up;
#: use the scalar loop (identical output — the differential suite pins both).
_VECTOR_MIN_VALUES = 1024


def huffman_decode(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a blob produced by :func:`huffman_encode`.

    Returns ``(symbols, bytes_consumed)`` so callers can embed the blob in a
    larger container.  Streams of ``_VECTOR_MIN_VALUES`` symbols or more are
    decoded in lanes (:func:`_decode_vectorized`), whose junction proof
    either closes or hands the stream to the scalar loop; tiny streams take
    the scalar loop directly.  The two are pinned to identical output, and
    to identical errors on damaged streams, by the differential test suite.
    """
    code, nvalues, total_bits, payload, consumed = _parse_stream(blob)
    if nvalues == 0:
        return np.empty(0, dtype=np.int64), consumed
    if nvalues < _VECTOR_MIN_VALUES:
        return _decode_scalar(code, nvalues, total_bits, payload), consumed
    return _decode_vectorized(code, nvalues, total_bits, payload), consumed


def huffman_decode_scalar(blob: bytes) -> tuple[np.ndarray, int]:
    """Reference per-symbol decoder (differential-testing oracle).

    Same contract as :func:`huffman_decode`; kept as the independent
    implementation the hypothesis suite and the bench compare against, the
    same pattern :mod:`repro.utils.bits` uses for the vectorized packer.
    """
    code, nvalues, total_bits, payload, consumed = _parse_stream(blob)
    if nvalues == 0:
        return np.empty(0, dtype=np.int64), consumed
    return _decode_scalar(code, nvalues, total_bits, payload), consumed
