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
* :func:`huffman_decode_many` — lane-parallel decoding of a batch of
  streams, NumPy playing the SIMD lanes of a GPU decoder.  A Huffman
  decoder started on a wrong bit falls into step with the true parse
  within a few dozen symbols, so every non-empty stream, however short,
  is cut into lanes by bit offset (a short one is a single lane from
  bit 0), every lane starts a warm-up before its cut, and the lanes of
  *all* streams of the batch advance in lockstep, one symbol per lane per
  whole-array iteration, keeping the symbols that start inside their own
  span.  The streams lie end to end in one word array and each lane
  carries its stream's table offset, so a read of several partitions pays
  the loop's ~100 iterations once, not once per partition.  When no code
  of the batch is longer than 16 bits the lookup is one level, a table as
  wide as the batch's longest code; otherwise a 12-bit first level hands
  longer codes to one ``searchsorted`` over keys tagged with their stream.
  The result is proved, not assumed, stream by stream: lane 0 of a stream
  starts at its bit 0, and a lane is right exactly when its first kept
  position is where the lane before it in the same stream left its span.
  A lane whose junction disagrees is re-run from that proven exit; a
  stream that stays unproven, shows an invalid pattern or runs short goes
  to the scalar decoder, which so raises every error, and takes no other
  stream of its batch with it.  :func:`huffman_decode` is a batch of one;
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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError
from repro.utils.bits import BitReader, pack_varlen_codes

#: First-level decode-table width (bits) of the scalar decoder, and of the
#: lane decoder when a batch holds a code longer than ``_SINGLE_LEVEL_BITS``.
TABLE_BITS = 12

#: Hard cap on Huffman code length; above this we fall back to fixed-length.
MAX_CODE_LEN = 48

_HDR = struct.Struct("<4sBIQ")  # magic, flags, nsyms, nvalues
_MAGIC = b"HUF1"


@dataclass
class HuffmanCode:
    """A canonical code: per-symbol lengths plus derived encode/decode tables."""

    lengths: np.ndarray  # uint8 per symbol (0 = symbol absent)
    # uint64 per symbol, bit-reversed for LSB-first packing; None on the code
    # of a parsed stream, which the decoders derive from ``lengths``.
    codes: np.ndarray | None = None
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
    :func:`_read_header` checks parsed ones), so codes fit 64 bits.
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


def _read_header(blob: bytes) -> tuple[HuffmanCode, int, int]:
    """Parse and check a header blob; returns ``(code, nvalues,
    bytes_consumed)`` with ``code.codes`` left unbuilt.

    The encoder never emits a length past the cap or an over-subscribed
    table (Kraft sum > 1, here in exact units of 2**-MAX_CODE_LEN).  Both
    checks read the present lengths only, not the whole alphabet.
    """
    if len(blob) < _HDR.size:
        raise CorruptStreamError("huffman header truncated")
    magic, flags, nsyms, nvalues = _HDR.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CorruptStreamError("bad huffman magic")
    need = _HDR.size + nsyms
    if len(blob) < need:
        raise CorruptStreamError("huffman length table truncated")
    lengths = np.frombuffer(blob, dtype=np.uint8, count=nsyms, offset=_HDR.size).copy()
    present = lengths[lengths != 0]
    if present.size and int(present.max()) > MAX_CODE_LEN:
        raise CorruptStreamError("huffman code length exceeds the cap")
    counts = np.bincount(present).tolist()
    kraft = sum(c << (MAX_CODE_LEN - ln) for ln, c in enumerate(counts) if ln)
    if kraft > 1 << MAX_CODE_LEN:
        raise CorruptStreamError("huffman length table is over-subscribed")
    return HuffmanCode(lengths=lengths, fixed=bool(flags & 1)), nvalues, need


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
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """Build the single-level lookup table plus long-code dictionary.

    ``table_sym[window]``/``table_len[window]`` decode any code of length
    <= TABLE_BITS in one peek; longer codes fall back to an MSB-first
    incremental walk through ``long_map[(prefix_value, prefix_len)]``.
    """
    codes = _canonical_codes(lengths)
    size = 1 << TABLE_BITS
    table_sym = np.full(size, -1, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.int64)
    long_map: dict[tuple[int, int], int] = {}
    for sym in np.flatnonzero(lengths):
        ln = int(lengths[sym])
        rev = int(codes[sym])  # LSB-first pattern as it appears in stream
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
    Returns ``(code, nvalues, total_bits, payload, consumed)``; ``code``
    carries the lengths only.
    """
    code, nvalues, off = _read_header(blob)
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
    table_sym_a, table_len_a, long_map = _build_decode_tables(code.lengths)
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
#: Rounds of re-running out-of-step lanes before the oracle takes a stream.
_REPAIR_ROUNDS = 16
#: A batch whose codes are all this short decodes with one table lookup.
_SINGLE_LEVEL_BITS = 16
#: Values one lane pass decodes at most.  A stream counts as at least
#: ``1 << _SINGLE_LEVEL_BITS``, the slots of its widest table, so a pass's
#: tables and recorded symbols stay a few tens of MB.
_BATCH_VALUES = 1 << 20


def _lane_code(lengths: np.ndarray) -> tuple | None:
    """One code in canonical order, ``(lens, entries, starts, gcd)``, or
    None for a code without symbols.

    ``entries[i]`` packs the i-th canonical code as ``(symbol << 6) |
    length`` and ``starts[i]`` is where it begins in the code space, in
    units of ``2**-MAX_CODE_LEN``.  Canonical codes tile the code space
    contiguously, so the last start at or below a window's top
    ``MAX_CODE_LEN`` bits names its code.  What an incomplete code leaves
    uncovered is one more entry, a pseudo-code of symbol -1 and length
    ``gcd``, that ``lens`` does not list; ``gcd`` is the gcd of the
    lengths, of which every symbol boundary of a stream is a multiple.
    """
    present = np.flatnonzero(lengths)
    if not present.size:
        return None
    lens = lengths[present].astype(np.int64)
    order = np.argsort(lens, kind="stable")  # stable: ties by symbol
    lens = lens[order]
    gcd = int(np.gcd.reduce(lens))
    entries = (present[order] << 6) | lens
    ends = np.cumsum(np.left_shift(1, MAX_CODE_LEN - lens))
    starts = np.append(0, ends[:-1])
    if int(ends[-1]) < 1 << MAX_CODE_LEN:
        entries = np.append(entries, (-1 << 6) | gcd)
        starts = np.append(starts, ends[-1])
    return lens, entries, starts, gcd


def _lane_tables(codes: list) -> tuple:
    """Decode tables ``(table, keys, entries, width)`` for a batch of codes.

    ``table`` holds one ``2**width``-slot table per code, end to end: each
    code of at most ``width`` bits repeated over the slots it owns, entry 0
    (look further) where longer codes begin.  The width is the batch's
    longest code when that is at most ``_SINGLE_LEVEL_BITS``, and then
    nothing looks further.  Otherwise it is ``TABLE_BITS``, and ``keys``
    tags every code's start with its stream, ``(stream << MAX_CODE_LEN) |
    start``, so one ``searchsorted`` over them finds any lane's ``entries``.
    """
    longest = max(int(lens[-1]) for lens, *_ in codes)
    width = longest if longest <= _SINGLE_LEVEL_BITS else TABLE_BITS
    level1, slots = [], []
    for lens, entries, starts, _ in codes:
        # The codes of at most ``width`` bits are a prefix in canonical
        # order, and where they end is a slot boundary; so is the start of
        # a pseudo-code that follows only such codes.
        k = int(np.searchsorted(lens, width, side="right"))
        if k == lens.size:
            k = entries.size
        end = starts[k] if k < entries.size else 1 << MAX_CODE_LEN
        bounds = np.append(starts[:k], end) >> (MAX_CODE_LEN - width)
        level1 += [entries[:k], [0]]
        slots.append(np.diff(bounds, append=1 << width))
    table = np.repeat(np.concatenate(level1), np.concatenate(slots))
    if longest <= _SINGLE_LEVEL_BITS:
        return table, None, None, width
    keys = np.concatenate([(s << MAX_CODE_LEN) | code[2] for s, code in enumerate(codes)])
    entries = np.concatenate([code[1] for code in codes])
    return table, keys.astype(np.uint64), entries, width


def _run_lanes(
    words: np.ndarray,
    tables: tuple,
    pos: np.ndarray,
    end: np.ndarray,
    tab: np.ndarray | None,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Step every lane from ``pos`` to its first symbol boundary at or past ``end``.

    The lane loop: one symbol per lane per iteration, in lockstep, each
    lane reading its own stream's table at offset ``tab`` (None for a
    batch of one, whose table is at 0 and whose keys carry no tag: the
    per-lane offsets cost a lone large stream ~5 %); a lane that has
    arrived leaves the working set, so stragglers do not drag the others
    along.  Returns the arrival positions, the symbols each lane took and,
    with ``record``, per iteration the decoded entries and whose they are.
    """
    table, keys, entries, width = tables
    exits = pos.copy()
    counts = np.zeros(pos.size, dtype=np.int64)
    lanes = np.arange(pos.size)
    recorded = []
    top = np.uint64(64 - width)
    tag = MAX_CODE_LEN - width  # ``tab << tag`` is the lane's stream tag
    low = np.uint64(64 - MAX_CODE_LEN)
    step = 0
    while True:
        live = pos < end
        if not live.all():
            exits[lanes[~live]] = pos[~live]
            counts[lanes[~live]] = step
            lanes, pos, end = lanes[live], pos[live], end[live]
            if tab is not None:
                tab = tab[live]
            if not lanes.size:
                return exits, counts, recorded
        window = words[pos >> 4]
        window <<= (pos & 15).view(np.uint64)
        index = (window >> top).view(np.int64)
        if tab is not None:
            index += tab
        entry = table[index]
        if keys is not None:
            far = np.flatnonzero(entry == 0)
            if far.size:
                key = window[far] >> low
                if tab is not None:
                    key |= (tab[far] << tag).view(np.uint64)
                entry[far] = entries[np.searchsorted(keys, key, side="right") - 1]
        if record:
            recorded.append((entry, lanes))
        pos = pos + (entry & 63)
        step += 1


def _decode_lanes(streams: Sequence[tuple]) -> list[np.ndarray]:
    """Lane-parallel decoder for a batch of ``(code, nvalues, total_bits,
    payload)``; see the module docstring for the scheme.

    Returns per stream exactly what :func:`_decode_scalar` returns, and
    hands a stream to it whenever its junction proof does not close or it
    is damaged, so every ``CorruptStreamError`` is the oracle's; the other
    streams keep their lane decodes.
    """
    oracle, held, codes = [], [], []
    for k, (code, nvalues, total_bits, _) in enumerate(streams):
        # ``_parse_stream`` never lets ``nvalues > total_bits`` through: that
        # test is for direct callers (the differential tests pass truncated
        # payloads).
        lane_code = _lane_code(code.lengths) if 0 < nvalues <= total_bits else None
        if lane_code is None:
            oracle.append(k)
        else:
            held.append(k)
            codes.append(lane_code)
    results: list = [None] * len(streams)
    if held:
        for k, out in zip(held, _lane_pass([streams[k] for k in held], codes)):
            if out is None:
                oracle.append(k)
            results[k] = out
    for k in sorted(oracle):
        results[k] = _decode_scalar(*streams[k])
    return results


def _lane_pass(streams: list, codes: list) -> list[np.ndarray | None]:
    """One lockstep pass over the lanes of all ``streams``: per stream its
    proved symbols, or None where the oracle has to decide."""
    tables = _lane_tables(codes)
    nstreams = len(streams)

    # The streams end to end, each word-aligned and followed by one zero
    # word: bit-reversed bytes read MSB-first through an unaligned
    # big-endian view, bits past ``total_bits`` zeroed as BitReader.peek
    # does.  The aligned copy ``words[i]`` = bits [16 i, 16 i + 64) has
    # 49 >= MAX_CODE_LEN valid bits, and a lane short of its stream's end
    # reads no further than that stream's zero word.
    nwords = [-(-total_bits // 64) + 1 for _, _, total_bits, _ in streams]
    origin = (np.cumsum(nwords) - nwords) * 64  # each stream's bit 0
    buf = np.zeros(sum(nwords) * 8, dtype=np.uint8)
    for (_, _, total_bits, payload), bit0 in zip(streams, origin.tolist()):
        nbytes = -(-total_bits // 8)
        buf[bit0 >> 3 : (bit0 >> 3) + nbytes] = np.frombuffer(payload, np.uint8, nbytes)
    buf = _BYTE_REV[buf]
    for (_, _, total_bits, _), bit0 in zip(streams, origin.tolist()):
        if total_bits & 7:
            buf[(bit0 + total_bits) >> 3] &= 0xFF00 >> (total_bits & 7) & 0xFF
    unaligned = np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))
    words = unaligned[::2].astype(np.uint64)

    # Lanes of equal bit length per stream.  Cuts and warm-up are multiples
    # of the gcd of the code lengths, or equal- and even-length codes would
    # never fall into step.  A header that understates ``nvalues`` must not
    # leave a few lanes to walk the whole stream: expect at most 16 bits a
    # symbol.
    warms, cuts, ends = [], [], []
    for (_, nvalues, total_bits, _), code, bit0 in zip(streams, codes, origin.tolist()):
        gcd = code[3]
        expected = max(nvalues, total_bits >> 4)
        per_lane = min(max(math.isqrt(expected >> 5), _LANE_SYMBOLS_MIN), _LANE_SYMBOLS_MAX)
        span = -(-total_bits // (max(1, expected // per_lane) * gcd)) * gcd
        warm = -(-_WARMUP_SYMBOLS * total_bits // (expected * gcd)) * gcd
        cut = np.arange(0, total_bits, span, dtype=np.int64)
        warms.append(np.maximum(cut - warm, 0) + bit0)
        cuts.append(cut + bit0)
        ends.append(np.minimum(cut + span, total_bits) + bit0)
    nlanes = np.array([cut.size for cut in cuts])
    owner = np.repeat(np.arange(nstreams), nlanes)  # each lane's stream
    head = np.cumsum(nlanes) - nlanes  # each stream's lane 0
    joined = np.ones(owner.size, dtype=bool)  # a lane of its stream before it
    joined[head] = False
    end = np.concatenate(ends)
    tab = owner << tables[3] if nstreams > 1 else None
    gave_up = np.zeros(nstreams, dtype=bool)

    def out_of_step() -> np.ndarray:
        bad = np.flatnonzero(exits[:-1] != first[1:]) + 1
        return bad[joined[bad] & ~gave_up[owner[bad]]]

    first = _run_lanes(words, tables, np.concatenate(warms), np.concatenate(cuts), tab)[0]
    exits, counts, recorded = _run_lanes(words, tables, first, end, tab, record=True)
    passes = [(np.arange(owner.size), recorded)]
    final = np.zeros(owner.size, dtype=np.int64)  # the pass holding each lane's symbols
    bad = out_of_step()
    # This many lanes out of step after one pass: the code does not synchronise.
    gave_up |= np.bincount(owner[bad], minlength=nstreams) > nlanes // 2
    bad = bad[~gave_up[owner[bad]]]
    while bad.size:
        if len(passes) > _REPAIR_ROUNDS:
            gave_up[owner[bad]] = True
            break
        first[bad] = exits[bad - 1]
        exits[bad], counts[bad], recorded = _run_lanes(
            words, tables, first[bad], end[bad], tab if tab is None else tab[bad], record=True
        )
        final[bad] = len(passes)
        passes.append((bad, recorded))
        bad = out_of_step()

    # Every junction of a proved stream agrees, so its lanes' symbols in
    # lane order are the stream's.  The oracle still owns a stream that
    # runs short, whose last symbol ends past ``total_bits`` or that shows
    # an invalid pattern.  Lane j's t-th symbol goes to base[j] + t, what a
    # later pass superseded past the end: one scatter per recorded
    # iteration.
    total = int(counts.sum())
    base = np.cumsum(counts) - counts
    out = np.empty(total + max(len(rec) for _, rec in passes), dtype=np.int64)
    for number, (which, recorded) in enumerate(passes):
        dest = np.where(final[which] == number, base[which], total)
        for step, (entry, lanes) in enumerate(recorded):
            out[dest[lanes] + step] = entry
    out >>= 6
    held = np.add.reduceat(counts, head).tolist()
    last_exit = exits[head + nlanes - 1].tolist()
    first_symbol = base[head].tolist()
    results: list[np.ndarray | None] = []
    for s, (_, nvalues, total_bits, _) in enumerate(streams):
        symbols = out[first_symbol[s] : first_symbol[s] + nvalues]
        proved = not (
            gave_up[s]
            or held[s] < nvalues
            or (held[s] == nvalues and last_exit[s] > int(origin[s]) + total_bits)
            or int(symbols.min()) < 0
        )
        results.append(symbols if proved else None)
    return results


def huffman_decode_many(blobs: Sequence[bytes]) -> list[tuple[np.ndarray, int]]:
    """Decode blobs produced by :func:`huffman_encode`, in one lane pass.

    Returns ``(symbols, bytes_consumed)`` per blob, in order, so callers can
    embed each blob in a larger container.  Every non-empty stream, however
    short, is decoded in lanes together with the rest of the batch (more
    than ``_BATCH_VALUES`` of them in a few passes), whose junction proof
    either closes or hands that one stream to the scalar loop.  The two are
    pinned to identical output, and to identical errors on damaged streams,
    by the differential test suite.
    """
    parsed = [_parse_stream(blob) for blob in blobs]
    symbols: list = [None] * len(parsed)
    batches: list[list[int]] = []
    load = 0
    for k, (_, nvalues, *_) in enumerate(parsed):
        if nvalues == 0:
            symbols[k] = np.empty(0, dtype=np.int64)
        else:
            weight = max(nvalues, 1 << _SINGLE_LEVEL_BITS)
            if not batches or load + weight > _BATCH_VALUES:
                batches.append([])
                load = 0
            batches[-1].append(k)
            load += weight
    for batch in batches:
        for k, out in zip(batch, _decode_lanes([parsed[k][:4] for k in batch])):
            symbols[k] = out
    return [(out, stream[4]) for out, stream in zip(symbols, parsed)]


def huffman_decode(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a blob produced by :func:`huffman_encode`: a batch of one.

    Returns ``(symbols, bytes_consumed)`` so callers can embed the blob in a
    larger container.
    """
    return huffman_decode_many([blob])[0]


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
