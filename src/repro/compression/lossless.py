"""Byte-level lossless backends for the final SZ stage.

SZ applies a general-purpose lossless compressor (zstd/gzip) after Huffman
coding.  Here the SZ container (:mod:`repro.compression.sz`) hands it what
it can shrink: the Huffman code table (a length byte per alphabet symbol,
nearly all zero) and the outlier values.  The Huffman bitstream is wrapped
too only when one symbol holds at least half the partition
(:func:`repro.compression.huffman.skewed`); otherwise it is stored as it is,
since a general-purpose pass gains next to nothing on it.  Two backends sit
behind a one-byte tag:

``zlib``
    The stdlib DEFLATE implementation (default; closest to SZ's behaviour).
``none``
    Identity: the stream stays independent of the zlib build, which is why
    the codec's golden streams use it.

The paper's ratio model analyses this stage run-length style; that size
analysis lives with the model (:mod:`repro.modeling.ratio_model`), not here.

Every backend is wrapped in a store-if-bigger guard: if the backend expands
the payload the raw bytes are stored with the ``raw`` tag, so
``lossless_compress`` never loses to the identity by more than 9 bytes.
"""

from __future__ import annotations

import struct
import sys
import zlib

from repro.errors import CorruptStreamError

_TAG_RAW = 0
_TAG_ZLIB = 1

#: The backend names :func:`lossless_compress` accepts.
BACKENDS = ("zlib", "none")

_LEN = struct.Struct("<Q")


def lossless_compress(payload: bytes, backend: str = "zlib", level: int = 1) -> bytes:
    """Compress ``payload`` with the named backend.

    The result is self-describing: 1 tag byte + 8-byte original length +
    body.  If the backend output is not smaller than the input, the raw bytes
    are stored instead (tag ``raw``).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")
    head = _LEN.pack(len(payload))
    if backend == "zlib":
        body = zlib.compress(payload, level)
        if len(body) < len(payload):
            return bytes((_TAG_ZLIB,)) + head + body
    return bytes((_TAG_RAW,)) + head + payload


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
    if orig_len >= sys.maxsize:
        raise CorruptStreamError(f"lossless declared length {orig_len} out of range")
    body = stream[1 + _LEN.size :]
    if tag == _TAG_RAW:
        if len(body) < orig_len:
            raise CorruptStreamError("raw lossless body truncated")
        return body[:orig_len], 1 + _LEN.size + orig_len
    if tag == _TAG_ZLIB:
        inflater = zlib.decompressobj()
        try:
            # At most one byte past the declared length: a corrupt length or
            # a deflate bomb fails here instead of inflating all it holds.
            out = inflater.decompress(body, orig_len + 1)
        except zlib.error as exc:
            # Surfaced by tamper-detection certification: corrupt bytes must
            # raise the library's own taxonomy, not a raw zlib.error.
            raise CorruptStreamError(f"zlib body corrupt: {exc}") from exc
        if len(out) != orig_len:
            raise CorruptStreamError("zlib body length mismatch")
        if not inflater.eof:
            raise CorruptStreamError("zlib body truncated")
        if inflater.unused_data:
            raise CorruptStreamError("zlib body has trailing bytes")
        return out, len(stream)
    raise CorruptStreamError(f"unknown lossless tag {tag}")
