"""Shared test helpers, importable from any test module.

Kept separate from ``conftest.py`` on purpose: pytest loads conftest
modules specially (outside the normal import system), so test modules must
not import from them — ``from helpers import ...`` works because pytest
puts each test file's directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np


def make_smooth_field(shape=(24, 24, 24), noise=0.01, seed=0, dtype=np.float32):
    """Band-limited smooth field plus mild noise (compresses like sim data)."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 3 * np.pi, s) for s in shape]
    f = np.ones(shape, dtype=np.float64)
    for ax, grid in enumerate(axes):
        expand = [None] * len(shape)
        expand[ax] = slice(None)
        f = f * np.sin(grid + ax)[tuple(expand)]
    f += rng.normal(0.0, noise, shape)
    return f.astype(dtype)


def open_series_file(path, series, fields=None, **open_kwargs):
    """``repro.open(path, "w", **open_kwargs)`` with one time-axis dataset
    per field of a :class:`~repro.data.timesteps.TimestepSeries` (default:
    every field of its steps), each at that field's absolute error bound."""
    import repro

    gen = series.snapshot_generator(0)
    f = repro.open(str(path), "w", **open_kwargs)
    for name in fields or gen.field_names:
        f.create_dataset(
            name, series.shape, np.float32,
            maxshape=(None,) + series.shape, error_bound=gen.error_bound(name),
        )
    return f


def series_step(series, step, fields=None):
    """One step of a series as the ``{field: array}`` ``append_step`` takes."""
    gen = series.snapshot_generator(step)
    return {name: gen.field(name) for name in fields or gen.field_names}


def reference_build_code(freqs, limit=15):
    """The retired Huffman construction, kept as the differential oracle.

    A ``(freq, node_id)`` heap (leaves carry their symbol as id, internal
    nodes ids past the alphabet in creation order), a per-leaf walk up a
    ``dict`` of parents for the depth, DEFLATE's length limit applied one
    code at a time, and canonical codes assigned one symbol at a time in
    (length, symbol) order, bit-reversed one bit at a time.  ``limit`` is
    the longest code while the present symbols fit in as many bits (None:
    no limit, the layout of streams written before codes were limited).
    Returns ``(lengths uint8, codes uint64)`` over the full alphabet.
    """
    import heapq

    freqs = np.asarray(freqs, dtype=np.int64)
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nz.size == 1:
        lengths[nz[0]] = 1
    elif nz.size > 1:
        heap = [(int(freqs[s]), int(s)) for s in nz]
        heapq.heapify(heap)
        parent = {}
        next_id = int(freqs.size)
        while len(heap) > 1:
            f1, n1 = heapq.heappop(heap)
            f2, n2 = heapq.heappop(heap)
            parent[n1] = parent[n2] = next_id
            heapq.heappush(heap, (f1 + f2, next_id))
            next_id += 1
        for s in nz:
            depth, node = 0, int(s)
            while node in parent:
                node = parent[node]
                depth += 1
            lengths[s] = depth
    if limit is not None:
        limit = max(limit, (int(nz.size) - 1).bit_length())
    if limit is not None and nz.size and int(lengths.max()) > limit:
        # Clamp, then while the code is over-full (Kraft sum in units of
        # 2**-limit) move the deepest code shorter than the limit one bit
        # down and one clamped code up beside it.
        ranked = sorted(nz.tolist(), key=lambda s: (int(lengths[s]), s))
        lens = [min(int(lengths[s]), limit) for s in ranked]
        # ``lens`` stays sorted: the code after the deepest shorter one is a
        # clamped one.
        kraft = sum(1 << (limit - ln) for ln in lens)
        i = len(lens) - 1
        while kraft > 1 << limit:
            while lens[i] >= limit:
                i -= 1
            kraft -= (1 << (limit - lens[i])) + 1
            lens[i] += 1
            lens[i + 1] = lens[i]
            kraft += 2 << (limit - lens[i])
            i += 1
        for s, ln in zip(ranked, lens):
            lengths[s] = ln
    codes = np.zeros(freqs.size, dtype=np.uint64)
    code, prev_len = 0, None
    for sym in sorted(nz.tolist(), key=lambda s: (int(lengths[s]), s)):
        ln = int(lengths[sym])
        code <<= ln - (ln if prev_len is None else prev_len)
        prev_len = ln
        rev, value = 0, code
        for _ in range(ln):
            rev = (rev << 1) | (value & 1)
            value >>= 1
        codes[sym] = rev
        code += 1
    return lengths, codes


def golden_field(edge, dtype, seed):
    """Seeded cube whose compressed bytes are the same on every platform.

    Built from integers alone — the frozen legacy ``RandomState`` stream, a
    running sum, an exact power-of-two scale — so neither libm nor a change
    to numpy's ``Generator`` streams can move the golden stream digests.
    The odd numerator keeps every value off a quantization-bin edge at
    decimal error bounds.
    """
    rs = np.random.RandomState(seed)
    steps = rs.randint(-3, 4, size=(edge, edge, edge))
    walk = steps.cumsum(axis=2) + rs.randint(-40, 41, size=(edge, edge, 1))
    return ((4 * walk + 1) * 2.0**-10).astype(dtype)


def unique_delta_field(shape):
    """A field whose codec Lorenzo deltas at an abs bound of 0.5 are
    ``0 .. size-1`` in C order: every value is identifiable by its symbol."""
    from repro.compression.predictors import lorenzo_inverse

    codes = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    return lorenzo_inverse(codes).astype(np.float64)


def sampled_deltas(data, **kwargs):
    """The Lorenzo deltas ``sample_partition_stats`` examines (abs bound 0.5,
    default radius), in its stream order; on a :func:`unique_delta_field`
    they are the flat C-order indices of the sampled values."""
    from repro.modeling.sampling import sample_partition_stats

    stats = sample_partition_stats(data, 0.5, "abs", **kwargs)
    return stats.sampled_symbols - 32768 - 1
