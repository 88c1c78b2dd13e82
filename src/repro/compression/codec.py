"""Per-field compression fan-out: the drivers' compression hot loop.

An :class:`~repro.compression.sz.SZCompressor` is stateless with respect to
the data it compresses: all tuning lives in constructor arguments, so one
instance can be shared across ranks/threads — and, because
:meth:`~repro.compression.sz.SZCompressor.compress` is a pure function of
(codec config, array), :func:`compress_fields` produces byte-identical
streams under any :mod:`repro.exec` backend.  The compression kernels bottom
out in NumPy ufuncs and zlib, both of which release the GIL, so the thread
backend sees real parallelism.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.compression.sz import SZCompressor
from repro.errors import CompressionError
from repro.exec import resolve_executor


def _compress_cell(cell: "tuple[SZCompressor, np.ndarray]") -> bytes:
    """One (codec, array) compression cell."""
    codec, data = cell
    return codec.compress(data)


def compress_fields(
    fields: Mapping[str, np.ndarray],
    codecs: Mapping[str, SZCompressor],
    order: Sequence[str] | None = None,
    executor=None,
) -> dict[str, bytes]:
    """Compress every field through its codec; name → stream.

    ``order`` fixes the cell order (the drivers pass their Algorithm 1
    order); results are keyed by name so callers consume them in any
    order.  Streams are byte-identical across executor backends — each
    cell is a pure function — so parallelizing this loop can never change
    what lands in the file.
    """
    names = list(order) if order is not None else list(fields)
    missing = [n for n in names if n not in fields or n not in codecs]
    if missing:
        raise CompressionError(f"fields without data or codec: {missing}")
    ex = resolve_executor(executor)
    streams = ex.map_cells(_compress_cell, [(codecs[n], fields[n]) for n in names])
    return dict(zip(names, streams))
