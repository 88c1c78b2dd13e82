"""Sampling-based statistics for ratio prediction.

The ratio-quality model never compresses the full partition.  It quantizes
and Lorenzo-transforms a small, evenly spread subset of blocks, then derives
everything else (symbol histogram, outlier fraction, Huffman efficiency)
from that sample.  Block-local transforms approximate the global transform:
only each block's leading faces differ, a vanishing fraction for blocks of
8³ and up — the same approximation the original model makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.predictors import lorenzo_forward
from repro.compression.quantizer import LinearQuantizer
from repro.errors import ModelingError
from repro.utils.blocks import sample_block_slices

#: Default sampling block edge (8^d values per block).
DEFAULT_BLOCK_EDGE = 8

#: Default fraction of blocks examined; the source model's overhead target
#: is <10% of compression time, which ~5% of blocks comfortably meets.
DEFAULT_FRACTION = 0.05


@dataclass(frozen=True)
class SampleStats:
    """Symbol statistics gathered from sampled blocks."""

    #: histogram over the symbol alphabet (0 = escape, as in the codec).
    symbol_counts: np.ndarray
    #: fraction of sampled values that escaped the quantizer radius.
    outlier_fraction: float
    #: number of values examined.
    n_sampled: int
    #: number of values in the full partition.
    n_total: int
    #: the sampled symbol stream itself (for lossless-stage estimation).
    sampled_symbols: np.ndarray
    #: effective absolute error bound used.
    abs_bound: float

    @property
    def n_unique_symbols(self) -> int:
        """Distinct symbols observed (drives Huffman tree-build cost)."""
        return int(np.count_nonzero(self.symbol_counts))

    @property
    def sample_fraction(self) -> float:
        """Fraction of the partition actually examined."""
        return self.n_sampled / self.n_total if self.n_total else 0.0


def sample_partition_stats(
    data: np.ndarray,
    bound: float,
    mode: str = "abs",
    radius: int = 32768,
    fraction: float = DEFAULT_FRACTION,
    block_edge: int = DEFAULT_BLOCK_EDGE,
) -> SampleStats:
    """Gather sampled symbol statistics for one data partition.

    Mirrors the codec's pipeline (same quantizer, same Lorenzo transform,
    same symbolization) on ~``fraction`` of the partition's blocks.
    """
    if data.ndim < 1:
        raise ModelingError("scalar input not supported")
    if radius < 2:
        raise ModelingError("radius must be >= 2")
    quantizer = LinearQuantizer(bound, mode)
    spec = quantizer.resolve(data)
    # max(1, ...): a zero-length axis must not produce a zero-width block
    # (division by zero in the tiling); it tiles to zero blocks either way.
    block = tuple(max(1, min(block_edge, s)) for s in data.shape)
    slices = sample_block_slices(data.shape, block, fraction)
    if not slices:
        raise ModelingError("empty partition")
    streams: list[np.ndarray] = []
    for sl in slices:
        # Extend the block one layer backwards where possible so the Lorenzo
        # deltas inside the block match the *global* transform exactly (a
        # delta depends only on immediate predecessors); the extension layer
        # itself is discarded.  At the global origin the zero-prepend delta
        # is already the global one.
        ext = tuple(slice(max(0, s.start - 1), s.stop) for s in sl)
        grew = tuple(e.start < s.start for e, s in zip(ext, sl))
        q = quantizer.quantize(np.ascontiguousarray(data[ext]), spec)
        d = lorenzo_forward(q)
        inner = tuple(slice(1, None) if g else slice(None) for g in grew)
        d = d[inner].ravel()
        shifted = d + radius
        predictable = (shifted >= 0) & (shifted < 2 * radius)
        streams.append(np.where(predictable, shifted + 1, 0))
    sampled = np.concatenate(streams)
    # One histogram over the whole sample, not one full-alphabet pass per
    # block; symbol 0 is the escape, so its count is the outlier count.
    counts = np.bincount(sampled, minlength=2 * radius + 1)
    return SampleStats(
        symbol_counts=counts,
        outlier_fraction=int(counts[0]) / sampled.size,
        n_sampled=sampled.size,
        n_total=int(data.size),
        sampled_symbols=sampled,
        abs_bound=spec.abs_bound,
    )
