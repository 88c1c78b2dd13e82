"""The benchmark's correctness rule: every value read back lies within
the declared absolute error bound of what was written, with half a
float32 ulp of slack for the cast back to the storage dtype."""

from __future__ import annotations

import numpy as np


def bound_violations(written: np.ndarray, read: np.ndarray, bound: float) -> int:
    """How many elements of ``read`` break ``bound`` against ``written``
    (a shape mismatch breaks it everywhere)."""
    if read.shape != written.shape:
        return int(written.size)
    err = np.abs(read.astype(np.float64) - written)
    over = err > bound
    if not over.any():
        return 0
    magnitude = np.maximum(np.abs(written[over]), np.abs(read[over])).astype(np.float32)
    return int(np.count_nonzero(err[over] > bound + 0.5 * np.spacing(magnitude)))
