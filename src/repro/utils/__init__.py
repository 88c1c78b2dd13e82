"""Shared low-level utilities: bit packing, statistics, RNG."""

from repro.utils.bits import BitReader, BitWriter, pack_varlen_codes
from repro.utils.stats import (
    compression_ratio,
    bit_rate,
    max_abs_error,
    mse,
    psnr,
    value_range,
)
from repro.utils.rng import resolve_rng, spawn_rngs

__all__ = [
    "BitReader",
    "BitWriter",
    "pack_varlen_codes",
    "compression_ratio",
    "bit_rate",
    "max_abs_error",
    "mse",
    "psnr",
    "value_range",
    "resolve_rng",
    "spawn_rngs",
]
