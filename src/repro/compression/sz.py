"""The SZ-style prediction-based error-bounded lossy compressor.

Pipeline (compression)::

    float array
      └─ LinearQuantizer      codes  q = round(x / 2eb)        (all loss here)
          └─ Lorenzo forward  deltas d                          (exact)
              └─ symbolization  s = d + radius, outliers → ESC  (exact)
                  └─ Huffman over s                             (exact)
                      └─ lossless backend (zlib / none)         (exact)
                         over the code table and the outliers

The encoder allocates each partition-sized intermediate once and drops it
as soon as the next stage has its input: the quantizer divides into one
float64 buffer, rounds it in place and converts it once to the int64
codes; the Lorenzo transform alternates between two int64 buffers;
symbolization shifts the deltas in place (escapes, when any, are gathered
first); the Huffman stage builds its code over the window of symbols
present, gathers codes and ``uint8`` lengths from window-sized tables, and
the packer joins them in pairs.  Range checks are a min and a max,
not a boolean mask per test.

The decoder works in the buffers the Huffman stage hands it: a stream's
int64 symbols (its slice of the batch's lane pass, or the scalar oracle's
array) are desymbolized and integrated in place once every check of the
stream has passed, and one multiply, computed in float64, writes the
reconstruction straight into the fresh array of the stored dtype that is
returned.  Past the Huffman stage that array is the only partition-sized
allocation, and it owns its memory, so the read cache keeps it uncopied.

Decompression inverts each stage; reconstruction error is bounded by ``eb``
point-wise by construction.  Outlier deltas (|d| > radius) are escaped to a
dedicated symbol and their raw int64 values travel in a side stream, matching
SZ's "unpredictable data" path — and, as in SZ, a flood of outliers is what
pins compression throughput at its *lower* bound, while near-degenerate
symbol distributions at huge error bounds pin the *upper* bound (paper Fig. 5
discussion).

Stream container layout (little-endian), version 1::

    magic  "SZR1"                      4 bytes
    header                             fixed struct (see _HEADER)
    shape                              ndim * uint64
    body (body_nbytes):
        lossless-wrapped part (wrapped_nbytes):
            huffman code table (header + one length byte per symbol)
            [huffman bit count + bitstream, when skewed]
            outlier values (int64 * n_outliers)
        raw part, unless skewed:
            huffman bit count (uint64) + bitstream

The header's version byte is 1; its last two fields are ``wrapped_nbytes``
and the CRC32 of the raw part, which the read checks before the Huffman
stage sees a bit.  The lossless pass crushes the code table (65,537 length
bytes at the default radius, nearly all zero) but gains next to nothing on
a Huffman bitstream, so the bitstream stays outside the wrap, except where
:func:`repro.compression.huffman.skewed` holds: when one symbol is at
least half the partition (near-degenerate data at a large error bound)
the code spends a whole bit where the data needs less, and the pass over
the bitstream gains.  Version 0 streams (version byte 0, last two fields
0) wrap the whole body: table, bitstream and outliers; they still decode.
Either way the read rebuilds that version 0 body before the Huffman stage.

The container is self-describing: :func:`parse_stream_info` recovers sizes
and parameters without decompressing, which the benchmark harness uses.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.huffman import huffman_decode_many, huffman_encode_parts, table_nbytes
from repro.compression.lossless import BACKENDS, lossless_compress, lossless_decompress
from repro.compression.predictors import LorenzoPredictor, lorenzo_integrate
from repro.compression.quantizer import LinearQuantizer, QuantizerSpec
from repro.errors import CompressionError, CorruptStreamError

_MAGIC = b"SZR1"
# dtype char, ndim, mode char, version, abs_bound, requested_bound,
# radius, n_outliers, body_nbytes, wrapped_nbytes, raw part's CRC32
_HEADER = struct.Struct("<ccccdd4sQQII")
#: The layout :meth:`SZCompressor.compress` writes; every version up to it reads.
_VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): b"f", np.dtype(np.float64): b"d"}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}
_MODE_TAGS = {"abs": b"a", "rel": b"r"}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}

#: Default quantizer radius (SZ's default corresponds to 65536 quantization
#: bins, i.e. radius 32768).
DEFAULT_RADIUS = 32768


@dataclass(frozen=True)
class SZStreamInfo:
    """Metadata recovered from a compressed stream without decompression."""

    dtype: np.dtype
    shape: tuple[int, ...]
    mode: str
    abs_bound: float
    requested_bound: float
    radius: int
    n_outliers: int
    body_nbytes: int
    total_nbytes: int
    #: container layout: 0 wraps the whole body, 1 leaves the bitstream raw
    version: int
    #: leading body bytes inside the lossless wrap (all of a version 0 body)
    wrapped_nbytes: int
    #: CRC32 of the body bytes after the wrap (0 when there are none)
    raw_crc32: int

    @property
    def n_values(self) -> int:
        """Number of array elements in the original data."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def original_nbytes(self) -> int:
        """Size of the uncompressed array in bytes."""
        return self.n_values * self.dtype.itemsize

    @property
    def compression_ratio(self) -> float:
        """Original bytes over stream bytes."""
        return self.original_nbytes / self.total_nbytes if self.total_nbytes else 0.0

    @property
    def bit_rate(self) -> float:
        """Average bits per value in the stream."""
        return 8.0 * self.total_nbytes / self.n_values if self.n_values else 0.0


class SZCompressor:
    """Prediction-based error-bounded lossy compressor (SZ-style).

    Parameters
    ----------
    bound:
        Error bound value.  Interpreted per ``mode``.
    mode:
        ``"abs"`` — point-wise absolute bound; ``"rel"`` — value-range
        relative bound (``abs = bound * (max - min)``), as in SZ.
    radius:
        Quantization-symbol radius; deltas outside ``[-radius, radius)`` are
        escaped to the outlier stream.  The symbol alphabet has
        ``2 * radius + 1`` entries (the extra one is the escape symbol).
    lossless:
        Final lossless backend: ``"zlib"`` (default) or ``"none"``.
    """

    #: zlib level of the lossless pass; a constant, read by
    #: ``perfbench/layers.py``.
    lossless_level = 1

    def __init__(
        self,
        bound: float = 1e-3,
        mode: str = "rel",
        radius: int = DEFAULT_RADIUS,
        lossless: str = "zlib",
    ) -> None:
        if radius < 2:
            raise CompressionError("radius must be >= 2")
        if lossless not in BACKENDS:
            raise CompressionError(f"unknown lossless backend {lossless!r}; choose from {BACKENDS}")
        self.quantizer = LinearQuantizer(bound, mode)
        self.predictor = LorenzoPredictor()
        self.radius = int(radius)
        self.lossless = lossless

    # -- public API ---------------------------------------------------------

    def max_error(self) -> float | None:
        """Absolute bound for ``abs`` mode; data-dependent for ``rel``."""
        if self.quantizer.mode == "abs":
            return self.quantizer.requested_bound
        return None

    def compress(self, data: np.ndarray) -> bytes:
        """Compress ``data`` (float32/float64, any rank >= 1)."""
        if np.asarray(data).ndim < 1:
            raise CompressionError("scalar input not supported")
        data = np.ascontiguousarray(data)
        if data.dtype not in _DTYPE_TAGS:
            raise CompressionError(f"unsupported dtype {data.dtype}; use float32/float64")
        spec = self.quantizer.resolve(data)
        # Nothing keeps the codes once the deltas exist.
        d = self.predictor.forward(self.quantizer.quantize(data, spec))
        symbols, outliers = self._symbolize(d)
        table, bits, skewed = huffman_encode_parts(symbols, 2 * self.radius + 1)
        if skewed:  # the lossless pass still gains on this bitstream
            table, bits = table + bits, b""
        wrapped = lossless_compress(
            table + outliers.astype("<i8").tobytes(), self.lossless, self.lossless_level
        )
        if len(wrapped) >> 32:
            raise CompressionError("the lossless-wrapped part exceeds 4 GiB")
        header = _HEADER.pack(
            _DTYPE_TAGS[data.dtype],
            bytes((data.ndim,)),
            _MODE_TAGS[spec.mode],
            bytes((_VERSION,)),
            spec.abs_bound,
            spec.requested_bound,
            struct.pack("<I", self.radius),
            len(outliers),
            len(wrapped) + len(bits),
            len(wrapped),
            zlib.crc32(bits),
        )
        shape_blob = np.asarray(data.shape, dtype="<u8").tobytes()
        return b"".join((_MAGIC, header, shape_blob, wrapped, bits))

    def decompress(self, stream: bytes) -> np.ndarray:
        """Reconstruct the array from a stream built by :meth:`compress`."""
        return self.decompress_many([stream])[0]

    def decompress_many(self, streams: Sequence[bytes]) -> list[np.ndarray]:
        """Reconstruct several streams: every Huffman stage in one
        :func:`huffman_decode_many` call (one lane pass), the stages around
        it stream by stream."""
        infos, bodies = [], []
        for stream in streams:
            info, body_off = _parse_header(stream)
            infos.append(info)
            bodies.append(_body(stream, info, body_off))
        decoded = huffman_decode_many(bodies)
        return [
            self._rebuild(info, body, symbols, consumed)
            for info, body, (symbols, consumed) in zip(infos, bodies, decoded)
        ]

    # -- internals ----------------------------------------------------------

    def _rebuild(
        self, info: SZStreamInfo, body: bytes, symbols: np.ndarray, consumed: int
    ) -> np.ndarray:
        """Outliers, Lorenzo inverse and dequantization of one decoded stream.

        ``symbols`` is the Huffman stage's own int64 buffer (this stream's
        slice of the lane pass's output, or the oracle's array); every
        check runs before it is written, then it is desymbolized and
        integrated in place.  The returned array is the one partition-sized
        allocation.
        """
        if symbols.size != info.n_values:
            raise CorruptStreamError("decoded symbol count mismatch")
        outlier_blob = body[consumed : consumed + 8 * info.n_outliers]
        if len(outlier_blob) != 8 * info.n_outliers:
            raise CorruptStreamError("outlier stream truncated")
        if symbols.size - np.count_nonzero(symbols) != info.n_outliers:
            raise CorruptStreamError("escape/outlier count mismatch")
        # Inverse of _symbolize: the escape symbol 0 takes the next outlier.
        escaped = np.flatnonzero(symbols == 0) if info.n_outliers else None
        symbols -= info.radius + 1
        if escaped is not None:
            symbols[escaped] = np.frombuffer(outlier_blob, dtype="<i8")
        q = lorenzo_integrate(symbols.reshape(info.shape))
        spec = QuantizerSpec(
            abs_bound=info.abs_bound, mode=info.mode, requested_bound=info.requested_bound
        )
        return LinearQuantizer(info.requested_bound, info.mode).dequantize(q, spec, info.dtype)

    def _symbolize(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map deltas to symbols; escape out-of-range deltas.

        Symbol layout: ``0`` = escape; ``1 .. 2*radius`` = delta + radius + 1
        for deltas in ``[-radius, radius - 1]``.

        ``deltas`` is the encoder's own buffer and is overwritten: when a
        min/max check finds nothing to escape (the common case) the shift
        runs in place and the buffer is returned as the symbols.
        """
        flat = deltas.reshape(-1)
        r = self.radius
        if not flat.size or (-r <= flat.min() and flat.max() < r):
            flat += r + 1
            return flat, flat[:0]
        escaped = (flat < -r) | (flat >= r)
        outliers = flat[escaped]
        flat += r + 1
        flat[escaped] = 0
        return flat, outliers


def _body(stream: bytes, info: SZStreamInfo, body_off: int) -> bytes:
    """The stream's body in the version 0 layout: the Huffman blob (code
    table, bit count, bitstream), then the outlier values.  A version 1
    raw part is checked against its CRC32 before anything is unwrapped."""
    split = body_off + info.wrapped_nbytes
    raw = memoryview(stream)[split : body_off + info.body_nbytes]
    if zlib.crc32(raw) != info.raw_crc32:
        raise CorruptStreamError("sz bitstream checksum mismatch")
    wrapped = lossless_decompress(stream[body_off:split])[0]
    if not raw:
        return wrapped
    table = table_nbytes(wrapped)
    return b"".join((wrapped[:table], raw, wrapped[table:]))


def _parse_header(stream: bytes) -> tuple[SZStreamInfo, int]:
    """Parse the container header; returns (info, body offset)."""
    if len(stream) < 4 + _HEADER.size:
        raise CorruptStreamError("sz stream truncated (header)")
    if stream[:4] != _MAGIC:
        raise CorruptStreamError("bad sz magic")
    (
        dtag,
        ndim_b,
        mtag,
        version_b,
        abs_bound,
        req_bound,
        radius_blob,
        n_outliers,
        body_nbytes,
        wrapped_nbytes,
        raw_crc32,
    ) = _HEADER.unpack_from(stream, 4)
    ndim, version = ndim_b[0], version_b[0]
    if dtag not in _TAG_DTYPES:
        raise CorruptStreamError(f"unknown dtype tag {dtag!r}")
    if mtag not in _TAG_MODES:
        raise CorruptStreamError(f"unknown mode tag {mtag!r}")
    if version > _VERSION:
        raise CorruptStreamError(f"unknown sz layout version {version}")
    if version == 0:
        if wrapped_nbytes or raw_crc32:
            raise CorruptStreamError("sz version 0 header has a nonzero trailing field")
        wrapped_nbytes = body_nbytes
    elif wrapped_nbytes > body_nbytes:
        raise CorruptStreamError("sz wrapped length exceeds the body")
    (radius,) = struct.unpack("<I", radius_blob)
    shape_off = 4 + _HEADER.size
    shape_end = shape_off + 8 * ndim
    if len(stream) < shape_end:
        raise CorruptStreamError("sz stream truncated (shape)")
    shape = tuple(int(x) for x in np.frombuffer(stream[shape_off:shape_end], dtype="<u8"))
    info = SZStreamInfo(
        dtype=_TAG_DTYPES[dtag],
        shape=shape,
        mode=_TAG_MODES[mtag],
        abs_bound=abs_bound,
        requested_bound=req_bound,
        radius=radius,
        n_outliers=int(n_outliers),
        body_nbytes=int(body_nbytes),
        total_nbytes=shape_end + int(body_nbytes),
        version=version,
        wrapped_nbytes=int(wrapped_nbytes),
        raw_crc32=int(raw_crc32),
    )
    if len(stream) < info.total_nbytes:
        raise CorruptStreamError("sz stream truncated (body)")
    return info, shape_end


def parse_stream_info(stream: bytes) -> SZStreamInfo:
    """Recover :class:`SZStreamInfo` from a compressed stream header."""
    info, _ = _parse_header(stream)
    return info
