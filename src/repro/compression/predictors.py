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
inputs.  Neither transform writes its input.  The inverse accumulates into
the one array it allocates, and :func:`lorenzo_integrate` is that
accumulation in place, for a decoder that already owns its deltas.
"""

from __future__ import annotations

import math

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


#: :func:`lorenzo_integrate` sums an axis slab by slab when each slab holds
#: at least ``_SLAB_MIN`` values in contiguous runs of at least ``_RUN_MIN``.
#: Measured on 2-D to 4-D int64 arrays: thinner slabs or shorter runs make
#: the per-slab call cost more than NumPy's strided accumulate (a 64x64x128
#: partition's first two axes: 0.3 vs 2.6 ms and 1.3 vs 1.8 ms; the middle
#: axis of 16x16x32, runs of 32: 74 vs 37 us).
_SLAB_MIN = 512
_RUN_MIN = 64


def lorenzo_inverse(d: np.ndarray) -> np.ndarray:
    """Inverse n-D Lorenzo transform: integrates residuals back to values.

    ``d`` is never written: the result is a fresh int64 copy integrated by
    :func:`lorenzo_integrate`.
    """
    return lorenzo_integrate(np.array(d, dtype=np.int64))


def lorenzo_integrate(q: np.ndarray) -> np.ndarray:
    """:func:`lorenzo_inverse` in place in the int64 array ``q``; returns ``q``.

    An axis whose slabs are large, with long contiguous runs, is summed by
    adding each slab to the next (``q[i] += q[i-1]``): NumPy's accumulate
    along such a strided axis runs several times slower.  Every other axis,
    the last one always (its runs are single values), takes one ``cumsum``.
    Integer sums commute, so the axis order does not change a bit of the
    result.
    """
    for axis in range(q.ndim - 1, -1, -1):
        run = math.prod(q.shape[axis + 1 :])
        if run < _RUN_MIN or q.size < _SLAB_MIN * q.shape[axis]:
            np.cumsum(q, axis=axis, out=q)
            continue
        slabs = np.moveaxis(q, axis, 0)
        for i in range(1, len(slabs)):
            slabs[i] += slabs[i - 1]
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
