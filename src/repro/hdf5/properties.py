"""Property lists (the HDF5 plist idiom).

HDF5 parameterizes operations through property lists rather than keyword
sprawl; the writers in :mod:`repro.core` do the same, so configurations are
explicit objects that can be logged and compared in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class FileAccessProps:
    """How a file is opened (fapl analogue)."""

    #: enable the background-thread async VOL connector.
    async_io: bool = False
    #: writer threads for the async engine.
    async_workers: int = 2
    #: byte alignment for allocations (HDF5's H5Pset_alignment).
    alignment: int = 8

    def __post_init__(self) -> None:
        if self.async_workers <= 0:
            raise ConfigError("async_workers must be positive")
        if self.alignment <= 0 or (self.alignment & (self.alignment - 1)):
            raise ConfigError("alignment must be a positive power of two")


@dataclass(frozen=True)
class DatasetCreateProps:
    """How a dataset is laid out (dcpl analogue)."""

    #: chunk shape of a filtered (declared) dataset (None = contiguous).
    chunks: tuple[int, ...] | None = None
    #: filter entries, ``((FILTER_SZ, options),)`` or empty (see :mod:`repro.hdf5.filters`).
    filters: tuple[tuple[int, dict], ...] = ()

    def __post_init__(self) -> None:
        if self.chunks is not None:
            if len(self.chunks) == 0 or any(c <= 0 for c in self.chunks):
                raise ConfigError("chunk dimensions must be positive")
        if self.filters and self.chunks is None:
            raise ConfigError("filters require a chunk shape (as in HDF5)")
