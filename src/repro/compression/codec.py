"""Per-field compression: the drivers' compression loop.

An :class:`~repro.compression.sz.SZCompressor` is stateless with respect to
the data it compresses: all tuning lives in constructor arguments, so one
instance can be shared across ranks, and
:meth:`~repro.compression.sz.SZCompressor.compress` is a pure function of
(codec config, array).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.compression.sz import SZCompressor
from repro.errors import CompressionError


def compress_fields(
    fields: Mapping[str, np.ndarray],
    codecs: Mapping[str, SZCompressor],
) -> dict[str, bytes]:
    """Compress every field through its codec, in field order; name →
    stream."""
    missing = [n for n in fields if n not in codecs]
    if missing:
        raise CompressionError(f"fields without data or codec: {missing}")
    return {n: codecs[n].compress(data) for n, data in fields.items()}
