"""Error-bounded lossy compression substrate.

This package is a from-scratch, numpy-vectorized reimplementation of the
prediction-based compression pipeline the paper builds on (SZ/SZ3):

``predictors``
    Exact integer Lorenzo forward/inverse delta transforms (1-D..n-D).
``quantizer``
    Error-bounded linear pre-quantization (the cuSZ formulation of SZ, which
    quantizes values onto the error-bound grid *before* prediction so the
    pipeline vectorizes while preserving the point-wise bound).
``huffman``
    Capped canonical Huffman coding with table-driven decoding.
``lossless``
    Byte-level lossless backends applied after entropy coding (zlib /
    identity), mirroring SZ's final lossless stage.
``sz``
    The full :class:`~repro.compression.sz.SZCompressor` pipeline and its
    stream container format — the library's one codec, the one the paper
    connects to HDF5.
``codec``
    :func:`~repro.compression.codec.compress_fields`, the per-field
    compression loop the filter baseline runs.
``metrics``
    Rate/distortion evaluation helpers (:class:`CompressionResult`).
"""

from repro.compression.huffman import (
    HuffmanCode,
    huffman_decode,
    huffman_encode,
)
from repro.compression.lossless import lossless_compress, lossless_decompress
from repro.compression.metrics import CompressionResult, evaluate_codec
from repro.compression.predictors import (
    LorenzoPredictor,
    lorenzo_forward,
    lorenzo_inverse,
)
from repro.compression.quantizer import LinearQuantizer
from repro.compression.sz import SZCompressor, SZStreamInfo, parse_stream_info

__all__ = [
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "lossless_compress",
    "lossless_decompress",
    "CompressionResult",
    "evaluate_codec",
    "LorenzoPredictor",
    "lorenzo_forward",
    "lorenzo_inverse",
    "LinearQuantizer",
    "SZCompressor",
    "SZStreamInfo",
    "parse_stream_info",
]
