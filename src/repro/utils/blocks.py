"""Block decomposition helpers for n-dimensional arrays.

The compressor, the sampling-based ratio model, and the domain partitioner
all walk arrays in regular blocks.  These helpers centralize the slice
arithmetic (including ragged edge blocks) so each consumer stays simple.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np


def block_view_slices(
    shape: Sequence[int], block: Sequence[int]
) -> Iterator[tuple[slice, ...]]:
    """Yield slice tuples tiling ``shape`` with blocks of size ``block``.

    Edge blocks are clipped to the array bounds, so every element belongs to
    exactly one yielded region.
    """
    if len(shape) != len(block):
        raise ValueError("shape and block must have equal rank")
    counts = [-(-s // b) for s, b in zip(shape, block)]
    for flat in range(int(np.prod(counts)) if counts else 0):
        idx = []
        rem = flat
        for c in reversed(counts):
            idx.append(rem % c)
            rem //= c
        idx.reverse()
        yield tuple(
            slice(i * b, min((i + 1) * b, s)) for i, b, s in zip(idx, block, shape)
        )


def sample_block_slices(
    shape: Sequence[int], block: Sequence[int], fraction: float
) -> list[tuple[slice, ...]]:
    """Select a deterministic, evenly spread subset of blocks.

    Used by the ratio-quality model: the paper's sampling strategy examines a
    small fraction of blocks (<10% overhead relative to compression).  The
    subset is a uniform stride over the block sequence, which keeps
    predictions reproducible.

    At least one block is always returned for a non-empty array.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    all_slices = list(block_view_slices(shape, block))
    if not all_slices:
        return []
    k = max(1, int(round(fraction * len(all_slices))))
    stride = len(all_slices) / k
    return [all_slices[min(int(i * stride), len(all_slices) - 1)] for i in range(k)]
