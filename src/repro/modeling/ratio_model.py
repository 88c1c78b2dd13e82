"""Sampling-based compression-ratio prediction (ratio-quality model).

Reimplements the prediction pipeline of Jin et al. (arXiv:2111.09815), which
the paper leans on (Section III-B): from a small sample of blocks,

1. estimate the **Huffman stage** bit-rate by building the actual canonical
   code over the sampled symbol histogram (this estimate is accurate — the
   paper notes Huffman-efficiency estimation is the strong part of the
   model);
2. estimate the **lossless stage** gain with a run-length analysis of the
   would-be encoded stream (the paper's Section III-D explains this is the
   weak part: "the compression-ratio model is based on run-length encoding
   to analyze the lossless encoding efficiency, which naturally features
   lower estimation accuracy" — this model runs the same RLE analysis and
   inherits the same failure mode at extreme ratios).  The SZ container
   wraps the bitstream only when the histogram is
   :func:`~repro.compression.huffman.skewed` (one symbol is at least half
   of it); otherwise the bitstream is stored as it is, and a factor of 1.0
   is exact, so the analysis runs only on a skewed sampled histogram;
3. add the outlier (unpredictable-value) payload and container overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.huffman import HuffmanCode, build_code, skewed
from repro.compression.sz import SZCompressor
from repro.errors import ModelingError
from repro.modeling.sampling import DEFAULT_FRACTION, SampleStats, sample_partition_stats
from repro.utils.bits import pack_varlen_codes

#: Fixed container overhead: sz header + shape + huffman/lossless framing.
_CONTAINER_OVERHEAD = 96


@dataclass(frozen=True)
class RatioPrediction:
    """Predicted compressed size for one partition."""

    n_values: int
    bytes_per_value: int
    predicted_nbytes: int
    huffman_bits_per_value: float
    lossless_factor: float
    outlier_fraction: float
    n_unique_symbols: int

    @property
    def bit_rate(self) -> float:
        """Predicted compressed bits per value (0 for empty partitions)."""
        if self.n_values == 0:
            return 0.0
        return 8.0 * self.predicted_nbytes / self.n_values

    @property
    def ratio(self) -> float:
        """Predicted compression ratio (0 for empty partitions)."""
        return self.n_values * self.bytes_per_value / self.predicted_nbytes


def _rle_nbytes(payload: bytes) -> int:
    """Size of ``payload`` under a byte run-length code: a (count - 1, byte)
    pair per run of at most 256 equal bytes, so a run of ``n`` bytes costs
    ``2 * ceil(n / 256)``."""
    if not payload:
        return 0
    arr = np.frombuffer(payload, dtype=np.uint8)
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    run_len = np.diff(change, prepend=0, append=arr.size)
    return 2 * int(((run_len + 255) // 256).sum())


class RatioQualityModel:
    """Predicts compressed size of a partition without compressing it.

    Parameters
    ----------
    codec:
        The :class:`~repro.compression.sz.SZCompressor` whose configuration
        (bound, mode, radius, lossless backend) the prediction must match.
    fraction:
        Sampling density (the share of blocks sampled).
    lossless_estimator:
        Not a setting: ``"rle"``, the one estimator, is the only value
        accepted.  Kept only for ``perfbench/layers.py``, which passes it.
    """

    def __init__(
        self,
        codec: SZCompressor,
        fraction: float = DEFAULT_FRACTION,
        lossless_estimator: str = "rle",
    ) -> None:
        if lossless_estimator != "rle":
            raise ModelingError(f"unknown lossless estimator {lossless_estimator!r}")
        self.codec = codec
        self.fraction = fraction

    def predict(self, data: np.ndarray) -> RatioPrediction:
        """Predict the compressed stream size of ``data``."""
        if data.size == 0:
            # A zero-size partition (empty rank share of a skewed domain
            # decomposition) has an exact, data-independent stream size:
            # compressing the empty array is O(1), so predict by doing it.
            nbytes = len(self.codec.compress(np.zeros(data.shape, dtype=data.dtype)))
            return RatioPrediction(
                n_values=0,
                bytes_per_value=data.dtype.itemsize,
                predicted_nbytes=nbytes,
                huffman_bits_per_value=0.0,
                lossless_factor=1.0,
                outlier_fraction=0.0,
                n_unique_symbols=0,
            )
        stats = sample_partition_stats(
            data,
            bound=self.codec.quantizer.requested_bound,
            mode=self.codec.quantizer.mode,
            radius=self.codec.radius,
            fraction=self.fraction,
        )
        return self.predict_from_stats(stats, bytes_per_value=data.dtype.itemsize)

    def predict_from_stats(self, stats: SampleStats, bytes_per_value: int = 4) -> RatioPrediction:
        """Turn sampled statistics into a size prediction."""
        code = build_code(stats.symbol_counts)
        n_unique = stats.n_unique_symbols  # a count over the whole alphabet
        huff_bits = code.mean_length(stats.symbol_counts)
        lossless_factor = 1.0
        if skewed(stats.symbol_counts):
            lossless_factor = self._lossless_factor(stats, code)
        outlier_bits = stats.outlier_fraction * 64.0
        # The serialized code table is a lengths byte per alphabet symbol,
        # but the final lossless pass crushes its long zero runs; what
        # survives is roughly proportional to the distinct symbols present.
        if self.codec.lossless == "none":
            table_bytes = stats.symbol_counts.size
        else:
            table_bytes = 2 * n_unique + 32
        payload_bits = stats.n_total * (huff_bits / lossless_factor + outlier_bits)
        nbytes = int(np.ceil(payload_bits / 8.0)) + table_bytes + _CONTAINER_OVERHEAD
        return RatioPrediction(
            n_values=stats.n_total,
            bytes_per_value=bytes_per_value,
            predicted_nbytes=nbytes,
            huffman_bits_per_value=huff_bits,
            lossless_factor=lossless_factor,
            outlier_fraction=stats.outlier_fraction,
            n_unique_symbols=n_unique,
        )

    def _lossless_factor(self, stats: SampleStats, code: HuffmanCode) -> float:
        """Estimated shrink factor (>= 1) of the lossless pass: the sampled
        stream Huffman-encoded with ``code``, over its run-length size."""
        if self.codec.lossless == "none":
            return 1.0
        syms = stats.sampled_symbols
        lengths = code.lengths[syms].astype(np.int64)
        if lengths.size == 0 or lengths.max() == 0:
            return 1.0
        encoded, _ = pack_varlen_codes(code.codes[syms], lengths)
        if len(encoded) < 16:
            return 1.0
        return max(1.0, len(encoded) / max(_rle_nbytes(encoded), 1))
