"""Pre-computed write-offset tables (paper Section III-D).

After the all-gather of predicted sizes, **every rank independently
computes the same offset table** — determinism is the correctness
requirement, and these functions are pure so thread ranks and the
simulator share them bit-for-bit.

Each (field, rank) partition ``(f, k)`` gets a *slot*::

    reserved[f, k] = align( ceil(predicted[f, k] * Eq3(r[f, k])) )

where ``r[f, k]`` is that slot's extra-space ratio and ``Eq3`` the paper's
Eq. (3): a partition whose *predicted* compression ratio exceeds 32
(bit-rate < 1) gets its extra space boosted to ``min(2, 1 + (r - 1) * 4)``
because the ratio model is least accurate there.  ``r`` is the configured
Rspace for every slot of a cold write; a warm-started streamed step passes
one ratio per slot, sized from the miss last observed on that field and
rank (:func:`repro.core.pipeline.warm_slot_ratios`), never above Rspace.

Slots are laid out field-major (all ranks of field 0, then field 1, ...),
matching one dataset per field in the shared file.  The table also reports
the overflow-region base (end of the last slot) every rank needs for the
second phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Eq. (3) threshold: predicted ratios above this get boosted extra space.
HIGH_RATIO_THRESHOLD = 32.0


def effective_extra_space(rspace, predicted_ratio):
    """Eq. (3): the per-partition extra-space ratio actually applied.

    Both arguments broadcast against each other, so one call boosts a whole
    [nfields][nranks] table; two scalars give a float.
    """
    rspace = np.asarray(rspace, dtype=np.float64)
    if not np.all(rspace >= 1.0):
        raise ConfigError("extra-space ratio must be >= 1")
    boosted = np.minimum(2.0, 1.0 + (rspace - 1.0) * 4.0)
    out = np.where(np.asarray(predicted_ratio) > HIGH_RATIO_THRESHOLD, boosted, rspace)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OffsetTable:
    """Slot layout for ``nfields`` datasets × ``nranks`` partitions."""

    #: offsets[field][rank] — absolute file offset of the slot.
    offsets: np.ndarray
    #: reserved[field][rank] — slot size in bytes.
    reserved: np.ndarray
    #: first byte after the last slot (overflow region base).
    data_end: int
    #: base offset the layout started at.
    base_offset: int

    @property
    def nfields(self) -> int:
        """Number of field datasets."""
        return self.offsets.shape[0]

    @property
    def nranks(self) -> int:
        """Number of partitions per field."""
        return self.offsets.shape[1]

    @property
    def total_reserved(self) -> int:
        """Total reserved bytes across all slots."""
        return int(self.reserved.sum())

    def slot(self, field: int, rank: int) -> tuple[int, int]:
        """(offset, reserved) for one partition."""
        return int(self.offsets[field, rank]), int(self.reserved[field, rank])

    def metadata_nbytes(self) -> int:
        """Size of the offset metadata that must persist for reads.

        Two 8-byte integers per partition — for the paper's 4096-process,
        9-field Nyx case this is ~0.6 MB against 210 GB of data, matching
        the "totally negligible" 295 KB figure (they store one integer).
        """
        return 16 * self.offsets.size

    @classmethod
    def compute(
        cls,
        predicted_nbytes: np.ndarray,
        original_nbytes: np.ndarray,
        rspace: "float | np.ndarray",
        base_offset: int,
        alignment: int = 8,
    ) -> "OffsetTable":
        """Build the table from all-gathered predictions.

        Parameters
        ----------
        predicted_nbytes:
            Array [nfields][nranks] of predicted compressed sizes.
        original_nbytes:
            Same shape; uncompressed partition sizes (for Eq. (3) ratios).
        rspace:
            The extra-space ratio: one for every slot, or an array of the
            same shape, one per slot.
        base_offset:
            Where the first slot may start (past header/metadata).
        alignment:
            Slot alignment in bytes.
        """
        pred = np.asarray(predicted_nbytes, dtype=np.float64)
        orig = np.asarray(original_nbytes, dtype=np.float64)
        if pred.shape != orig.shape or pred.ndim != 2:
            raise ConfigError("predicted/original must be equal-shape 2-D arrays")
        # A zero-size partition (empty rank share) legitimately has zero
        # original bytes; its *predicted* stream is still positive (stream
        # headers), which keeps every slot non-degenerate.
        if np.any(pred <= 0) or np.any(orig < 0):
            raise ConfigError("predicted sizes must be positive, originals non-negative")
        if base_offset < 0 or alignment <= 0:
            raise ConfigError("invalid base offset or alignment")
        if np.ndim(rspace) and np.shape(rspace) != pred.shape:
            raise ConfigError("per-slot extra-space ratios must match the size matrix")
        boost = effective_extra_space(rspace, orig / pred)
        reserved = np.ceil(pred * boost).astype(np.int64)
        reserved = ((reserved + alignment - 1) // alignment) * alignment
        # Field-major running layout.
        flat = reserved.reshape(-1)
        starts = base_offset + np.concatenate(([0], np.cumsum(flat)[:-1]))
        offsets = starts.reshape(reserved.shape).astype(np.int64)
        return cls(
            offsets=offsets,
            reserved=reserved,
            data_end=int(base_offset + flat.sum()),
            base_offset=int(base_offset),
        )
