"""Sampling-based statistics for ratio prediction.

The ratio-quality model never compresses the full partition.  It quantizes
and Lorenzo-transforms a small, evenly spread subset of blocks, then derives
everything else (symbol histogram, outlier fraction, Huffman efficiency)
from that sample.

The sample is a uniform stride over the C-order sequence of blocks (edge
blocks clipped to the partition), so it is deterministic.  Each sampled
block is read together with the one layer in front of it along every axis:
a Lorenzo delta depends only on its immediate predecessors, so with that
layer present the deltas inside the block equal the codec's *global*
transform exactly.  Where a block starts at the partition's origin along
an axis there is no layer in front; that layer is set to zero instead,
which is what the codec's ``prepend=0`` difference sees, so every block is
treated alike.  All k sampled blocks are gathered with one ``np.take`` into
a ``(k, b0+1, ..., b(d-1)+1)`` stack, quantized in one call and differenced
once per axis (each difference drops the front layer), and a mask then
drops the clipped tail of ragged edge blocks.  A partition costs a fixed
number of NumPy calls however many blocks it samples.  The quantizer sees
the sampled blocks, their front layers and zeros: a NaN or Inf there
raises, one elsewhere in the partition is the codec's to reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from repro.compression.quantizer import LinearQuantizer
from repro.errors import ModelingError

#: Default sampling block edge (8^d values per block).
DEFAULT_BLOCK_EDGE = 8

#: Default fraction of blocks examined.  The source model's overhead target
#: is <10% of compression time; at ~5% of blocks, prediction (sampling plus
#: the size estimate) measures 0.05-0.10x a compression of 2 MiB partitions.
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
    same symbolization) on ``max(1, round(fraction * nblocks))`` of the
    partition's blocks of edge ``block_edge``.  The symbol stream holds the
    sampled blocks in block order, each block's values in C order.
    """
    if data.ndim < 1:
        raise ModelingError("scalar input not supported")
    if radius < 2:
        raise ModelingError("radius must be >= 2")
    quantizer = LinearQuantizer(bound, mode)
    spec = quantizer.resolve(data)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if 0 in data.shape:
        raise ModelingError("empty partition")
    # A block edge below 1 samples single-value blocks.
    block = [max(1, min(block_edge, s)) for s in data.shape]
    nblocks = [-(-s // b) for s, b in zip(data.shape, block)]
    n = math.prod(nblocks)
    # A uniform stride over the C-order block sequence, at least one block.
    k = max(1, int(round(fraction * n)))
    flat = np.minimum((np.arange(k) * (n / k)).astype(np.int64), n - 1)
    origins = np.unravel_index(flat, nblocks)
    offsets, inside = [], []
    for axis, (origin, b, s) in enumerate(zip(origins, block, data.shape)):
        # Coordinates of each block plus the layer in front of it, one row
        # per block, shaped to broadcast along this axis of the stack.
        coords = origin[:, None] * b + np.arange(-1, b)
        shape = [k] + [1] * data.ndim
        shape[axis + 1] = b + 1
        # Offsets into the C-order flattened partition, clipped into range.
        stride = math.prod(data.shape[axis + 1 :])
        offsets.append((np.minimum(np.maximum(coords, 0), s - 1) * stride).reshape(shape))
        shape[axis + 1] = b
        inside.append((coords[:, 1:] < s).reshape(shape))
    stack = np.take(data, reduce(np.add, offsets))
    for axis, origin in enumerate(origins):
        # The layer in front of a block at the origin is the zero the
        # codec's prepend=0 difference sees (clipping read coordinate 0).
        front = [origin == 0] + [slice(None)] * data.ndim
        front[axis + 1] = 0
        stack[tuple(front)] = 0
    # Each difference along a block axis drops that axis's front layer;
    # the mask then drops the clipped tail of ragged edge blocks.
    d = quantizer.quantize(stack, spec)
    for axis in range(1, d.ndim):
        d = np.diff(d, axis=axis)
    d = d[reduce(np.logical_and, inside)]
    shifted = d + radius
    predictable = (shifted >= 0) & (shifted < 2 * radius)
    sampled = np.where(predictable, shifted + 1, 0)
    # Symbol 0 is the escape, so its count is the outlier count.
    counts = np.bincount(sampled, minlength=2 * radius + 1)
    return SampleStats(
        symbol_counts=counts,
        outlier_fraction=int(counts[0]) / sampled.size,
        n_sampled=sampled.size,
        n_total=int(data.size),
        sampled_symbols=sampled,
        abs_bound=spec.abs_bound,
    )
