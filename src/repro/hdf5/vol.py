"""Virtual Object Layer: pluggable routing of dataset I/O.

HDF5 1.13 introduced the VOL so storage operations can be intercepted; the
async VOL connector is what the paper leans on to overlap compression with
writes.  Here:

* :class:`VOLConnector` — the interface (three operations suffice for the
  paper's pipeline: partition write, overflow write, raw slab write);
* :class:`NativeVOL` — executes synchronously against the file;
* :class:`AsyncVOL` — wraps another connector, queueing each operation on
  the file's background engine and returning an :class:`AsyncRequest`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.hdf5.async_io import AsyncIOEngine, AsyncRequest, EventSet
from repro.hdf5.dataset import Dataset


class VOLConnector(ABC):
    """Storage-operation routing interface."""

    @abstractmethod
    def partition_write(self, dataset: Dataset, index: int, payload: bytes) -> Any:
        """Write a compressed partition into its declared slot."""

    @abstractmethod
    def overflow_write(self, dataset: Dataset, index: int, tail: bytes, offset: int) -> Any:
        """Write a partition's overflow tail at a computed offset."""

    @abstractmethod
    def slab_write(self, dataset: Dataset, data: np.ndarray, start: Sequence[int]) -> Any:
        """Write a raw hyperslab (non-compressed path)."""


class NativeVOL(VOLConnector):
    """Synchronous pass-through connector."""

    def partition_write(self, dataset: Dataset, index: int, payload: bytes) -> int:
        return dataset.write_partition(index, payload)

    def overflow_write(self, dataset: Dataset, index: int, tail: bytes, offset: int) -> None:
        dataset.write_partition_overflow(index, tail, offset)

    def slab_write(self, dataset: Dataset, data: np.ndarray, start: Sequence[int]) -> None:
        dataset.write_slab(data, start)


class AsyncVOL(VOLConnector):
    """Connector queueing operations on background threads.

    Each operation returns an :class:`AsyncRequest`; passing an
    :class:`EventSet` tracks them for bulk waiting (the HDF5 idiom
    ``H5Dwrite_async(..., es_id)`` → ``H5ESwait``).
    """

    def __init__(
        self,
        engine: AsyncIOEngine,
        inner: VOLConnector | None = None,
        event_set: EventSet | None = None,
    ) -> None:
        self.engine = engine
        self.inner = inner or NativeVOL()
        self.event_set = event_set

    def _track(self, req: AsyncRequest) -> AsyncRequest:
        if self.event_set is not None:
            self.event_set.add(req)
        return req

    def partition_write(self, dataset: Dataset, index: int, payload: bytes) -> AsyncRequest:
        return self._track(
            self.engine.submit(
                lambda: self.inner.partition_write(dataset, index, payload),
                label=f"partition_write[{dataset.path}#{index}]",
            )
        )

    def overflow_write(
        self, dataset: Dataset, index: int, tail: bytes, offset: int
    ) -> AsyncRequest:
        return self._track(
            self.engine.submit(
                lambda: self.inner.overflow_write(dataset, index, tail, offset),
                label=f"overflow_write[{dataset.path}#{index}]",
            )
        )

    def slab_write(self, dataset: Dataset, data: np.ndarray, start: Sequence[int]) -> AsyncRequest:
        start = tuple(start)
        return self._track(
            self.engine.submit(
                lambda: self.inner.slab_write(dataset, data, start),
                label=f"slab_write[{dataset.path}@{start}]",
            )
        )
