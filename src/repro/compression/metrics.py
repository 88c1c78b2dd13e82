"""Rate/distortion evaluation helpers.

:func:`evaluate_codec` runs a full compress→decompress round trip and reports
the metrics the paper uses throughout its evaluation: compression ratio,
bit-rate, PSNR, and maximum point-wise error, plus wall-clock throughputs of
both directions (used by the offline throughput calibration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.compression.sz import SZCompressor
from repro.utils.stats import (
    bit_rate,
    compression_ratio,
    max_abs_error,
    psnr,
    violates_bound,
)


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of a single compression round trip."""

    original_nbytes: int
    compressed_nbytes: int
    n_values: int
    ratio: float
    bit_rate: float
    psnr_db: float
    max_error: float
    compress_seconds: float
    decompress_seconds: float

    @property
    def compress_throughput(self) -> float:
        """Compression throughput in original bytes/second."""
        return self.original_nbytes / self.compress_seconds if self.compress_seconds else 0.0

    @property
    def decompress_throughput(self) -> float:
        """Decompression throughput in original bytes/second."""
        return (
            self.original_nbytes / self.decompress_seconds if self.decompress_seconds else 0.0
        )

    def row(self) -> dict[str, float]:
        """Flat dict suitable for the benchmark table printer."""
        return {
            "ratio": self.ratio,
            "bit_rate": self.bit_rate,
            "psnr_db": self.psnr_db,
            "max_error": self.max_error,
            "comp_MBps": self.compress_throughput / 1e6,
            "decomp_MBps": self.decompress_throughput / 1e6,
        }


def evaluate_codec(
    codec: SZCompressor, data: np.ndarray, check_bound: bool = True
) -> CompressionResult:
    """Round-trip ``data`` through ``codec`` and collect metrics.

    When ``check_bound`` is true and the codec advertises a point-wise bound
    via :meth:`SZCompressor.max_error`, the reconstruction is verified
    against it (raises ``AssertionError`` on breach — this is a correctness
    oracle, not an expected runtime failure).
    """
    t0 = time.perf_counter()
    stream = codec.compress(data)
    t1 = time.perf_counter()
    recon = codec.decompress(stream)
    t2 = time.perf_counter()
    err = max_abs_error(data, recon)
    if check_bound:
        bound = codec.max_error()
        if bound is not None:
            # Point-wise check with per-element storage-dtype slack
            # (see violates_bound).
            assert not violates_bound(data, recon, bound), (
                f"error bound violated: {err} > {bound}"
            )
    return CompressionResult(
        original_nbytes=data.nbytes,
        compressed_nbytes=len(stream),
        n_values=data.size,
        ratio=compression_ratio(data.nbytes, len(stream)),
        bit_rate=bit_rate(data.size, len(stream)),
        psnr_db=psnr(data, recon),
        max_error=err,
        compress_seconds=t1 - t0,
        decompress_seconds=t2 - t1,
    )
