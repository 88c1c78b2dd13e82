"""Synchronous dataset I/O routing (HDF5's native VOL connector).

The async side of HDF5's VOL — queueing each write on background threads
so compression overlaps I/O — is the file's background write pool,
:attr:`repro.hdf5.file.File.async_engine` (a standard
``ThreadPoolExecutor``), to which :class:`~repro.core.pipeline.RealDriver`
submits dataset methods directly.  :class:`NativeVOL` is the synchronous
pass-through that ``perfbench/layers.py`` times a partition write through
(its ``hdf5.partition_write_mbps`` row); nothing in the package calls it.
"""

from __future__ import annotations

from repro.hdf5.dataset import Dataset


class NativeVOL:
    """Synchronous pass-through to the dataset's own write methods."""

    def partition_write(self, dataset: Dataset, index: int, payload: bytes) -> int:
        """Write a compressed partition into its declared slot."""
        return dataset.write_partition(index, payload)

    def overflow_write(self, dataset: Dataset, index: int, tail: bytes, offset: int) -> None:
        """Write a partition's overflow tail at a computed offset."""
        dataset.write_partition_overflow(index, tail, offset)
