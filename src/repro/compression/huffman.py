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
* :func:`huffman_decode` — vectorized table-driven decoding: every
  ``TABLE_BITS``-bit window is precomputed into a multi-symbol "hop"
  (symbols, cumulative lengths, bits consumed), so the decode loop advances
  one hop — up to ``TABLE_BITS`` symbols — per iteration and emits all
  symbols with a single masked gather; codes longer than ``TABLE_BITS``
  fall back to an incremental tree walk;
* :func:`huffman_decode_scalar` — the retained per-symbol reference
  decoder, the differential-testing oracle for the vectorized path (the
  same pattern :mod:`repro.utils.bits` uses for the packer).

Codes are generated MSB-first and stored bit-reversed so the LSB-first
bitstream yields code bits in natural order — the same trick DEFLATE uses.

If the optimal code for a very skewed distribution exceeds ``MAX_CODE_LEN``
bits, construction falls back to a fixed-length code over the observed
alphabet; this keeps the packer's two-word invariant and bounds worst-case
decode work.  The fallback is lossless, merely suboptimal, and is recorded in
the serialized table.
"""

from __future__ import annotations

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
    # Bind locals for speed; the vectorized decoder below replaces this as
    # the production path, but this loop remains the semantics oracle.
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


#: Hop-window widths: every window of ``hop_bits`` is precomputed into a
#: multi-symbol decode step.  Large streams amortize the bigger table.
_HOP_BITS_SMALL = TABLE_BITS
_HOP_BITS_LARGE = 16

#: Streams with at least this many values use the wide hop table.
_WIDE_HOP_MIN_VALUES = 1 << 16


def _build_hop_tables(
    table_sym: np.ndarray, table_len: np.ndarray, hop_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Precompute multi-symbol decode steps for every ``hop_bits`` window.

    For each of the ``2**hop_bits`` windows, greedily decode as many whole
    codes as fit entirely inside the window (using the single-level
    ``TABLE_BITS`` lookup for each).  Returns ``(syms, cums, counts,
    packed)``: ``syms[w, :counts[w]]`` are the symbols the window yields in
    stream order, ``cums[w, k]`` the cumulative bit length after symbol
    ``k``, and ``packed[w] == (nbits << 5) | counts[w]`` the per-hop
    advance, fused into one list lookup for the decode loop.  A window with
    ``packed == 0`` starts with a code longer than ``TABLE_BITS`` (or an
    invalid pattern) and falls back to the scalar walker.

    Prefix-freeness makes the greedy per-window decode exact: a table hit
    whose length fits in the window's remaining bits is necessarily the
    code those bits spell, regardless of what follows.
    """
    size = 1 << hop_bits
    table_mask = (1 << TABLE_BITS) - 1
    win = np.arange(size, dtype=np.int64)
    pos = np.zeros(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    syms = np.zeros((size, hop_bits), dtype=np.int32)
    cums = np.zeros((size, hop_bits), dtype=np.int8)
    active = np.ones(size, dtype=bool)
    for k in range(hop_bits):
        # High bits beyond the window are zero, matching BitReader.peek's
        # zero fill at the end of a stream.
        sub = (win >> pos) & table_mask
        s = table_sym[sub]
        ln = table_len[sub]
        ok = active & (s >= 0) & (ln <= hop_bits - pos)
        if not ok.any():
            break
        syms[ok, k] = s[ok]
        pos[ok] += ln[ok]
        cums[ok, k] = pos[ok]
        counts[ok] += 1
        active = ok
    packed = ((pos << 5) | counts).tolist()
    return syms, cums, counts, packed


def _stream_chunks(payload: bytes, total_bits: int) -> list[int]:
    """Overlapping 32-bit windows of the bitstream, one per 16 bits.

    ``chunks[i]`` holds bits ``[16*i, 16*i + 32)`` so any bit position can
    be peeked with a single list index and one small-int shift — the decode
    loop's window never exceeds ``_HOP_BITS_LARGE <= 32 - 15`` valid bits.
    Bits past ``total_bits`` are zeroed (matching :meth:`BitReader.peek`),
    so garbage padding in a hostile blob can't change what decodes.
    """
    nwords = len(payload) // 8
    words = np.zeros(nwords + 1, dtype=np.uint64)  # +1 guard word
    if nwords:
        words[:nwords] = np.frombuffer(payload, dtype=np.uint64)
        if total_bits & 63:
            words[nwords - 1] &= np.uint64((1 << (total_bits & 63)) - 1)
    halves = words.view(np.uint16).astype(np.uint32)
    return (halves[:-1] | (halves[1:] << np.uint32(16))).tolist()


def _decode_vectorized(
    code: HuffmanCode, nvalues: int, total_bits: int, payload: bytes
) -> np.ndarray:
    """Whole-array decoder: hop-table walk plus one vectorized emission.

    The per-hop fast loop touches only Python small ints — one chunk
    lookup, one shift/mask, one packed-table lookup — and each hop yields
    up to ``hop_bits`` symbols; the symbol emission at the end is a single
    masked gather.  Codes longer than ``TABLE_BITS`` drop to the same
    scalar walker the oracle uses, and the bounds-checked tail loop
    reproduces the oracle's error semantics (truncation, invalid streams)
    bit for bit.
    """
    hop_bits = _HOP_BITS_LARGE if nvalues >= _WIDE_HOP_MIN_VALUES else _HOP_BITS_SMALL
    table_sym, table_len, long_map = _build_decode_tables(code)
    hop_syms, hop_cums, hop_counts, packed = _build_hop_tables(table_sym, table_len, hop_bits)
    chunks = _stream_chunks(payload, total_bits)
    hop_mask = (1 << hop_bits) - 1

    reader: BitReader | None = None
    wins: list[int] = []
    append = wins.append
    long_syms: list[int] = []
    pos = 0
    produced = 0

    # Fast loop: no bounds checks needed while a full hop can neither cross
    # the declared bit limit nor overshoot the requested value count.
    fast_pos = total_bits - hop_bits
    fast_produced = nvalues - hop_bits
    while pos <= fast_pos and produced < fast_produced:
        window = (chunks[pos >> 4] >> (pos & 15)) & hop_mask
        cn = packed[window]
        if cn:
            append(window)
            produced += cn & 31
            pos += cn >> 5
            continue
        # Long code (or corrupt pattern): scalar walker, oracle semantics.
        if reader is None:
            reader = BitReader(payload, total_bits)
        reader.seek(pos)
        long_syms.append(_walk_long_code(reader, window, long_map))
        append(-1)
        produced += 1
        pos = reader.position

    # Tail loop: same walk with full bounds checks near both stream ends.
    while produced < nvalues:
        if pos >= total_bits:
            raise CorruptStreamError("bitstream exhausted")
        window = (chunks[pos >> 4] >> (pos & 15)) & hop_mask
        cn = packed[window]
        n = cn & 31
        if n == 0:
            if reader is None:
                reader = BitReader(payload, total_bits)
            reader.seek(pos)
            long_syms.append(_walk_long_code(reader, window, long_map))
            append(-1)
            produced += 1
            pos = reader.position
            continue
        if produced + n >= nvalues:
            need = nvalues - produced
            if pos + int(hop_cums[window, need - 1]) > total_bits:
                raise CorruptStreamError("bitstream exhausted")
            append(window)
            produced = nvalues
            break
        if pos + (cn >> 5) > total_bits:
            # A mid-stream hop crosses the declared limit while every one of
            # its symbols is still needed: the stream ran dry.
            raise CorruptStreamError("bitstream exhausted")
        append(window)
        produced += n
        pos += cn >> 5

    wins_arr = np.array(wins, dtype=np.int64)
    safe = np.where(wins_arr >= 0, wins_arr, 0)
    cnt = np.where(wins_arr >= 0, hop_counts[safe], 1)
    mat = hop_syms[safe]  # fresh gather: rows are writable
    if long_syms:
        mat[np.flatnonzero(wins_arr < 0), 0] = long_syms
    emitted = mat[np.arange(hop_bits) < cnt[:, None]]
    return emitted[:nvalues].astype(np.int64)


#: Below this many values the hop-table build cost dominates; use the
#: scalar loop (identical output — the differential suite pins both paths).
_VECTOR_MIN_VALUES = 1024


def huffman_decode(blob: bytes) -> tuple[np.ndarray, int]:
    """Decode a blob produced by :func:`huffman_encode`.

    Returns ``(symbols, bytes_consumed)`` so callers can embed the blob in a
    larger container.  Large streams take the vectorized hop-table path;
    tiny ones the scalar loop — both are pinned to identical output by the
    differential test suite.
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
