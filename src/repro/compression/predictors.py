"""Lorenzo prediction as exact integer delta transforms.

SZ predicts each point from its already-decoded neighbours (the Lorenzo
predictor) and entropy-codes the prediction residual.  The first-order
n-dimensional Lorenzo predictor has a convenient algebraic identity: its
residual field equals the composition of first-order differences along each
axis.  For a 3-D array ``q``::

    d[i,j,k] = q[i,j,k] - q[i-1,j,k] - q[i,j-1,k] - q[i,j,k-1]
             + q[i-1,j-1,k] + q[i-1,j,k-1] + q[i,j-1,k-1]
             - q[i-1,j-1,k-1]          (out-of-range terms = 0)

is exactly ``diff_z(diff_y(diff_x(q)))`` with zero padding, and the inverse is
``cumsum`` along each axis in the opposite order.  Operating on the *pre-
quantized* integer grid (see :mod:`repro.compression.quantizer`) makes both
directions exact — no error feedback loop — which is what lets the whole
pipeline vectorize while preserving SZ's error bound (this is the cuSZ
formulation of the SZ algorithm).

Deltas of int64 inputs can overflow int64 only if values approach 2**62;
the quantizer guards its output range, so the transforms here assume safe
inputs.  The forward transform never writes its input; the inverse
accumulates into the one array it allocates.
"""

from __future__ import annotations

import numpy as np


def lorenzo_forward(q: np.ndarray) -> np.ndarray:
    """Forward n-D Lorenzo transform (prediction residuals) of integer ``q``.

    The output has the same shape and dtype int64; applying
    :func:`lorenzo_inverse` reconstructs ``q`` exactly.  ``q`` itself is
    never written: each axis's difference goes into one of two buffers the
    call allocates once and alternates between, so a 3-D array costs two
    partition-sized allocations, not a ``prepend`` copy and a result per
    axis.
    """
    src = np.asarray(q, dtype=np.int64)
    bufs = [np.empty_like(src)]
    if src.ndim > 1:
        bufs.append(np.empty_like(src))
    for axis in range(src.ndim):
        dst = bufs[axis % 2]
        lead = (slice(None),) * axis
        head, rest, prev = (lead + (s,) for s in (slice(0, 1), slice(1, None), slice(None, -1)))
        # The first plane along ``axis`` has no predecessor (prepend 0).
        dst[head] = src[head]
        np.subtract(src[rest], src[prev], out=dst[rest])
        src = dst
    return src


def lorenzo_inverse(d: np.ndarray) -> np.ndarray:
    """Inverse n-D Lorenzo transform: integrates residuals back to values."""
    q = np.asarray(d, dtype=np.int64)
    for axis in range(q.ndim - 1, -1, -1):
        # The first sum allocates the result, the rest accumulate into it.
        q = np.cumsum(q, axis=axis, dtype=np.int64, out=q if axis < q.ndim - 1 else None)
    return q


class LorenzoPredictor:
    """Object wrapper pairing the forward and inverse transforms.

    Exists so alternative predictors (e.g. a block-regression predictor, as
    in SZ3) can share an interface; the SZ pipeline takes any object with
    ``forward``/``inverse`` methods satisfying ``inverse(forward(q)) == q``.
    """

    name = "lorenzo"

    def forward(self, q: np.ndarray) -> np.ndarray:
        """Residuals of the first-order Lorenzo prediction."""
        return lorenzo_forward(q)

    def inverse(self, d: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`forward`."""
        return lorenzo_inverse(d)
