"""Byte-level lossless backends for the final SZ stage.

SZ applies a general-purpose lossless compressor (zstd/gzip) after Huffman
coding.  Here the SZ container (:mod:`repro.compression.sz`) hands it what
it can shrink: the Huffman code table (a length byte per alphabet symbol,
nearly all zero) and the outlier values.  The Huffman bitstream is wrapped
too only when one symbol holds at least half the partition
(:func:`repro.compression.huffman.skewed`); otherwise it is stored as it is,
since a general-purpose pass gains next to nothing on it.  We provide three
interchangeable backends behind a one-byte tag:

``zlib``
    The stdlib DEFLATE implementation (default; closest to SZ's behaviour).
``rle``
    A from-scratch vectorized byte run-length coder.  Its compression power
    on Huffman output is intentionally weak — the paper's §III-D points out
    that the *ratio model* uses RLE-style analysis for the lossless stage and
    that this is where prediction accuracy degrades; having a real RLE
    backend lets tests exercise that regime honestly.
``none``
    Identity (useful for isolating entropy-coder behaviour).

Every backend is wrapped in a store-if-bigger guard: if the backend expands
the payload the raw bytes are stored with the ``raw`` tag, so
``lossless_compress`` never loses to the identity by more than 5 bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CorruptStreamError

_TAG_RAW = 0
_TAG_ZLIB = 1
_TAG_RLE = 2

_BACKENDS = ("zlib", "rle", "none")

_LEN = struct.Struct("<Q")


def _rle_compress(payload: bytes) -> bytes:
    """Vectorized byte RLE: (count-1, byte) pairs with 255-run splitting."""
    if not payload:
        return b""
    arr = np.frombuffer(payload, dtype=np.uint8)
    # Boundaries where the byte value changes.
    change = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [arr.size]))
    run_len = ends - starts
    run_val = arr[starts]
    # Split runs longer than 256 into chunks of <= 256, fully vectorized:
    # each run expands to nc chunks of 256 except its last, which carries the
    # remainder.
    n_chunks = -(-run_len // 256)
    total = int(n_chunks.sum())
    out_val = np.repeat(run_val, n_chunks)
    out_len = np.full(total, 256, dtype=np.int64)
    last_pos = np.cumsum(n_chunks) - 1
    out_len[last_pos] = run_len - (n_chunks - 1) * 256
    counts = (out_len - 1).astype(np.uint8)
    interleaved = np.empty(2 * total, dtype=np.uint8)
    interleaved[0::2] = counts
    interleaved[1::2] = out_val
    return interleaved.tobytes()


def _rle_nbytes(payload: bytes) -> int:
    """``len(_rle_compress(payload))`` without building the stream: two
    bytes per chunk, and a run of ``n`` bytes is ``ceil(n / 256)`` chunks."""
    if not payload:
        return 0
    arr = np.frombuffer(payload, dtype=np.uint8)
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    run_len = np.diff(change, prepend=0, append=arr.size)
    return 2 * int(((run_len + 255) // 256).sum())


def _rle_decompress(payload: bytes, expected: int) -> bytes:
    """Inverse of :func:`_rle_compress`."""
    if not payload:
        if expected:
            raise CorruptStreamError("rle stream empty but data expected")
        return b""
    arr = np.frombuffer(payload, dtype=np.uint8)
    if arr.size % 2:
        raise CorruptStreamError("rle stream has odd length")
    counts = arr[0::2].astype(np.int64) + 1
    vals = arr[1::2]
    if int(counts.sum()) != expected:
        raise CorruptStreamError("rle stream length mismatch")
    return np.repeat(vals, counts).tobytes()


def lossless_compress(payload: bytes, backend: str = "zlib", level: int = 1) -> bytes:
    """Compress ``payload`` with the named backend.

    The result is self-describing: 1 tag byte + 8-byte original length +
    body.  If the backend output is not smaller than the input, the raw bytes
    are stored instead (tag ``raw``).
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {_BACKENDS}")
    head = _LEN.pack(len(payload))
    if backend == "zlib":
        body = zlib.compress(payload, level)
        tag = _TAG_ZLIB
    elif backend == "rle":
        body = _rle_compress(payload)
        tag = _TAG_RLE
    else:
        body = payload
        tag = _TAG_RAW
    if len(body) >= len(payload):
        return bytes((_TAG_RAW,)) + head + payload
    return bytes((tag,)) + head + body


def lossless_decompress(stream: bytes) -> tuple[bytes, int]:
    """Decompress a stream from :func:`lossless_compress`.

    Returns ``(payload, bytes_consumed)``.  Consumption is exact, allowing
    the stream to be embedded in a larger container only if the container
    records the compressed extent; the SZ container stores the extent, so
    this function is typically handed an exact slice.
    """
    if len(stream) < 1 + _LEN.size:
        raise CorruptStreamError("lossless stream truncated")
    tag = stream[0]
    (orig_len,) = _LEN.unpack_from(stream, 1)
    body = stream[1 + _LEN.size :]
    if tag == _TAG_RAW:
        if len(body) < orig_len:
            raise CorruptStreamError("raw lossless body truncated")
        return body[:orig_len], 1 + _LEN.size + orig_len
    if tag == _TAG_ZLIB:
        try:
            out = zlib.decompress(body)
        except zlib.error as exc:
            # Surfaced by tamper-detection certification: corrupt bytes must
            # raise the library's own taxonomy, not a raw zlib.error.
            raise CorruptStreamError(f"zlib body corrupt: {exc}") from exc
        if len(out) != orig_len:
            raise CorruptStreamError("zlib body length mismatch")
        return out, len(stream)
    if tag == _TAG_RLE:
        out = _rle_decompress(body, orig_len)
        return out, len(stream)
    raise CorruptStreamError(f"unknown lossless tag {tag}")
