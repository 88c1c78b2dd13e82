"""Error-bounded linear pre-quantization.

Given an absolute error bound ``eb``, values are snapped to the uniform grid
with spacing ``2*eb``::

    code  = round(x / (2*eb))
    recon = code * (2*eb)        =>   |x - recon| <= eb

All loss happens here; every later stage (Lorenzo, Huffman, lossless) is
exact, so the point-wise bound holds for the full pipeline by construction.

Relative error bounds are value-range relative, as in SZ: the effective
absolute bound is ``eb_rel * (max(x) - min(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.utils.stats import value_range

#: Largest |code| the quantizer will emit; beyond this the input data is
#: declared un-quantizable at the requested bound (would overflow the exact
#: integer pipeline).  2**52 keeps Lorenzo deltas (sum of 8 terms) well inside
#: int64 and float64-exact territory.
MAX_ABS_CODE = 1 << 52


@dataclass(frozen=True)
class QuantizerSpec:
    """Resolved quantization parameters recorded in the stream header."""

    abs_bound: float
    mode: str  # "abs" or "rel"
    requested_bound: float


class LinearQuantizer:
    """Uniform scalar quantizer with a point-wise absolute error guarantee."""

    def __init__(self, bound: float, mode: str = "abs") -> None:
        if mode not in ("abs", "rel"):
            raise CompressionError(f"unknown error-bound mode {mode!r}")
        if not np.isfinite(bound) or bound <= 0.0:
            raise CompressionError("error bound must be a positive finite number")
        self.requested_bound = float(bound)
        self.mode = mode

    def resolve(self, data: np.ndarray) -> QuantizerSpec:
        """Compute the effective absolute bound for ``data``.

        For relative mode on constant data (range 0) the bound degenerates to
        zero; we fall back to scaling by the value magnitude (or 1.0 for an
        all-zero array) so quantization stays well-conditioned — the constant
        reconstructs exactly on the grid anyway.
        """
        if self.mode == "abs":
            eb = self.requested_bound
        else:
            rng = value_range(data)
            eb = self.requested_bound * rng
            if eb == 0.0:
                scale = float(np.max(np.abs(data))) if data.size else 1.0
                eb = self.requested_bound * max(scale, 1.0)
        return QuantizerSpec(abs_bound=eb, mode=self.mode, requested_bound=self.requested_bound)

    def quantize(self, data: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
        """Map ``data`` onto integer grid codes (int64).

        One float64 division, a min/max range check, and ``rint`` in place
        in that one buffer; ``data`` is left untouched.  The NaN/Inf
        scan runs only when the range check fails, to tell a non-finite
        input from a code overflow.
        """
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            raise CompressionError("quantizer expects floating-point input")
        scaled = np.divide(data, 2.0 * spec.abs_bound, dtype=np.float64)
        # NaN fails both comparisons, so it lands in the slow branch too.
        if scaled.size and not (-MAX_ABS_CODE <= scaled.min() and scaled.max() <= MAX_ABS_CODE):
            if not np.isfinite(scaled).all():
                raise CompressionError("data contains NaN/Inf or bound underflows")
            raise CompressionError(
                "error bound too small relative to data magnitude: "
                "quantization codes would overflow the exact integer pipeline"
            )
        return np.rint(scaled, out=scaled).astype(np.int64)

    def dequantize(
        self, codes: np.ndarray, spec: QuantizerSpec, dtype: np.dtype = np.float64
    ) -> np.ndarray:
        """Reconstruct values from grid codes into a fresh ``dtype`` array.

        One multiply, computed in float64 and rounded once to ``dtype`` as
        it is stored, so a float32 result needs no float64 intermediate.
        """
        out = np.empty(np.shape(codes), dtype=dtype)
        return np.multiply(codes, 2.0 * spec.abs_bound, out=out, dtype=np.float64)
