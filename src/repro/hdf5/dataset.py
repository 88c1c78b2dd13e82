"""Datasets: contiguous and declared-partition layouts.

Two layouts cover the paper's write paths:

``contiguous``
    Raw array bytes at one (offset, size) — the non-compression baseline.

``declared``
    The paper's deep integration: a partition table whose offsets and
    reserved extents were computed *before compression* from predicted
    sizes (plus extra space).  Ranks write their compressed streams
    independently into their reserved slots; payload beyond the slot is
    redirected by the caller to an overflow region at end-of-file and
    recorded per partition.  The table itself is the "metadata for the
    decompression purpose" the paper describes (≈ KBs, negligible).  The
    H5Z-SZ ``filter`` baseline is the same layout with offsets planned
    from exact compressed sizes.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cache import get_cache
from repro.errors import FileFormatError, HDF5Error, InvalidStateError
from repro.hdf5.datatype import dtype_from_tag, dtype_tag
from repro.hdf5.filters import FilterPipeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdf5.file import File


class PartitionEntry:
    """One declared partition slot."""

    __slots__ = (
        "index",
        "offset",
        "reserved",
        "actual",
        "overflow_offset",
        "overflow_nbytes",
        "region",
    )

    def __init__(
        self,
        index: int,
        offset: int,
        reserved: int,
        actual: int = 0,
        overflow_offset: int = 0,
        overflow_nbytes: int = 0,
        region: list | None = None,
    ) -> None:
        self.index = index
        self.offset = offset
        self.reserved = reserved
        self.actual = actual
        self.overflow_offset = overflow_offset
        self.overflow_nbytes = overflow_nbytes
        self.region = region

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "offset": self.offset,
            "reserved": self.reserved,
            "actual": self.actual,
            "overflow_offset": self.overflow_offset,
            "overflow_nbytes": self.overflow_nbytes,
            "region": self.region,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "PartitionEntry":
        return cls(**blob)


class Dataset:
    """An n-dimensional array object inside a :class:`~repro.hdf5.file.File`."""

    def __init__(
        self,
        file: "File",
        path: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
        layout: str = "contiguous",
        chunks: tuple[int, ...] | None = None,
        filters: FilterPipeline | None = None,
    ) -> None:
        if layout not in ("contiguous", "declared"):
            raise HDF5Error(f"unknown layout {layout!r}")
        self.file = file
        self.path = path
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        dtype_tag(self.dtype)  # validate early
        self.layout = layout
        self.chunks = tuple(int(c) for c in chunks) if chunks else None
        self.filters = filters or FilterPipeline()
        self.attrs: dict = {}
        self._lock = threading.Lock()
        self._filters_digest: str | None = None  # lazy cache-key component
        # contiguous state
        self._data_offset: int | None = None
        # declared state
        self._partitions: dict[int, PartitionEntry] = {}

    # -- common -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Logical (uncompressed) size in bytes."""
        return self.size * self.dtype.itemsize

    def _require_writable(self) -> None:
        self.file.require_writable()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Dataset {self.path!r} shape={self.shape} dtype={self.dtype} layout={self.layout}>"

    # -- contiguous layout ---------------------------------------------------

    def write(self, data: np.ndarray) -> None:
        """Write the full array (contiguous layout only)."""
        if self.layout != "contiguous":
            raise HDF5Error(f"write() requires contiguous layout, not {self.layout}")
        self._require_writable()
        data = np.ascontiguousarray(data, dtype=self.dtype)
        if data.shape != self.shape:
            raise HDF5Error(f"shape mismatch: {data.shape} != {self.shape}")
        with self._lock:
            if self._data_offset is None:
                self._data_offset = self.file.storage.allocate(self.nbytes)
        self.file.storage.write_at(data.tobytes(), self._data_offset)

    def write_slab(self, data: np.ndarray, start: Sequence[int]) -> None:
        """Write a hyperslab at element coordinates ``start`` (contiguous).

        The slab must be contiguous in file order, i.e. it must span full
        trailing dimensions (the common row-block decomposition); this is
        the restriction that makes independent parallel writes trivial.
        """
        if self.layout != "contiguous":
            raise HDF5Error("write_slab() requires contiguous layout")
        self._require_writable()
        data = np.ascontiguousarray(data, dtype=self.dtype)
        if len(start) != len(self.shape):
            raise HDF5Error("start rank mismatch")
        if data.shape[1:] != self.shape[1:] or any(s != 0 for s in start[1:]):
            raise HDF5Error("slab must span full trailing dimensions")
        if start[0] + data.shape[0] > self.shape[0]:
            raise HDF5Error("slab out of bounds")
        with self._lock:
            if self._data_offset is None:
                self._data_offset = self.file.storage.allocate(self.nbytes)
        row_bytes = self.nbytes // self.shape[0] if self.shape[0] else 0
        self.file.storage.write_at(
            data.tobytes(), self._data_offset + start[0] * row_bytes
        )

    def read(self) -> np.ndarray:
        """Read the full array back (any layout)."""
        if self.layout == "contiguous":
            if self._data_offset is None:
                raise InvalidStateError("dataset has no data yet")
            blob = self.file.storage.read_at(self.nbytes, self._data_offset)
            if len(blob) != self.nbytes:
                raise FileFormatError("contiguous data truncated")
            return np.frombuffer(blob, dtype=self.dtype).reshape(self.shape).copy()
        return self.read_region(tuple(slice(0, s) for s in self.shape))

    @property
    def stored_nbytes(self) -> int:
        """Bytes of file space this dataset occupies (compressed/reserved)."""
        if self.layout == "contiguous":
            return self.nbytes if self._data_offset is not None else 0
        return sum(p.reserved + p.overflow_nbytes for p in self._partitions.values())

    # -- declared layout -----------------------------------------------------

    def declare_partitions(
        self,
        offsets: Sequence[int],
        reserved: Sequence[int],
        regions: Sequence | None = None,
    ) -> None:
        """Install the pre-computed partition table (paper Section III-D).

        ``offsets``/``reserved`` come from the all-gathered predicted sizes
        plus extra space; every rank computes the same table, so this call
        is idempotent across ranks as long as the tables agree.
        """
        if self.layout != "declared":
            raise HDF5Error("declare_partitions() requires declared layout")
        self._require_writable()
        if len(offsets) != len(reserved):
            raise HDF5Error("offsets/reserved length mismatch")
        if regions is not None and len(regions) != len(offsets):
            raise HDF5Error("regions length mismatch")
        entries = {}
        prev_end = None
        for i, (off, res) in enumerate(zip(offsets, reserved)):
            if res < 0 or off < 0:
                raise HDF5Error("negative offset/reservation")
            if prev_end is not None and off < prev_end:
                raise HDF5Error("partition slots overlap")
            prev_end = off + res
            entries[i] = PartitionEntry(
                index=i,
                offset=int(off),
                reserved=int(res),
                region=list(regions[i]) if regions is not None else None,
            )
        with self._lock:
            if self._partitions:
                # Idempotent re-declaration must match exactly.
                if len(self._partitions) != len(entries) or any(
                    self._partitions[i].offset != e.offset
                    or self._partitions[i].reserved != e.reserved
                    for i, e in entries.items()
                ):
                    raise HDF5Error("conflicting partition re-declaration")
                return
            self._partitions = entries
        if entries:
            last = entries[len(entries) - 1]
            self.file.storage.place_at(
                min(e.offset for e in entries.values()),
                last.offset + last.reserved - min(e.offset for e in entries.values()),
            )

    @property
    def n_partitions(self) -> int:
        """Number of declared partitions."""
        return len(self._partitions)

    def partition(self, index: int) -> PartitionEntry:
        """The table entry for one partition."""
        try:
            return self._partitions[index]
        except KeyError:
            raise InvalidStateError(
                f"dataset {self.path!r} declares {self.n_partitions} partitions; "
                f"partition {index} is not one of them"
            ) from None

    def write_partition(self, index: int, payload: bytes) -> int:
        """Write a compressed stream into its reserved slot.

        Writes what fits; returns the number of *overflow* bytes that did
        not fit (0 in the common case).  The caller redirects the tail via
        :meth:`write_partition_overflow` — mirroring the paper's Fig. 8.
        """
        self._require_writable()
        entry = self.partition(index)
        fits = min(len(payload), entry.reserved)
        if fits:
            self.file.storage.write_at(payload[:fits], entry.offset)
        with self._lock:
            entry.actual = len(payload)
        get_cache().invalidate(self.file.cache_token, self.path, index)
        return len(payload) - fits

    def write_partition_overflow(self, index: int, tail: bytes, offset: int) -> None:
        """Store the overflow tail at an externally computed file offset."""
        self._require_writable()
        entry = self.partition(index)
        expected_tail = max(0, entry.actual - entry.reserved)
        if len(tail) != expected_tail:
            raise HDF5Error(
                f"overflow tail size {len(tail)} != expected {expected_tail}"
            )
        self.file.storage.write_at(tail, offset)
        self.file.storage.place_at(offset, len(tail))
        with self._lock:
            entry.overflow_offset = offset
            entry.overflow_nbytes = len(tail)
        get_cache().invalidate(self.file.cache_token, self.path, index)

    def read_partition(self, index: int) -> bytes:
        """Reassemble one partition's stream (slot + overflow tail)."""
        entry = self.partition(index)
        if entry.actual == 0:
            raise InvalidStateError(f"partition {index} was never written")
        main = self.file.storage.read_at(min(entry.actual, entry.reserved), entry.offset)
        if entry.actual > entry.reserved:
            if entry.overflow_nbytes != entry.actual - entry.reserved:
                raise FileFormatError(f"partition {index} overflow missing")
            tail = self.file.storage.read_at(entry.overflow_nbytes, entry.overflow_offset)
            return main + tail
        return main

    def read_region(self, slices: Sequence[slice]) -> np.ndarray:
        """Read a rectangular sub-region of the dataset.

        For the declared layout only the partitions whose recorded regions
        intersect the request are decoded — the one reassembly loop behind
        :meth:`read` (the full extent) and the facade's ``ds[a:b, ...]``
        indexing.  The contiguous layout falls back to a full read plus
        slicing.
        """
        if len(slices) != len(self.shape):
            raise HDF5Error("region rank mismatch")
        bounds = []
        for sl, dim in zip(slices, self.shape):
            start, stop, step = sl.indices(dim)
            if step != 1:
                raise HDF5Error("strided region reads are not supported")
            bounds.append((start, max(start, stop)))
        if self.layout != "declared":
            return self.read()[tuple(slice(a, b) for a, b in bounds)]
        out = np.zeros(tuple(b - a for a, b in bounds), dtype=self.dtype)
        targets = []
        for index, entry in sorted(self._partitions.items()):
            if entry.region is None:
                raise HDF5Error("cannot read by region: partitions carry no regions")
            clipped = [
                (max(a, ra), min(b, rb))
                for (a, b), (ra, rb) in zip(bounds, entry.region)
            ]
            if any(a >= b for a, b in clipped):
                continue  # no overlap with the request
            targets.append((index, entry, clipped))
        blocks = self._partition_arrays([t[0] for t in targets])
        for (index, entry, clipped), block in zip(targets, blocks):
            src = tuple(
                slice(a - ra, b - ra)
                for (a, b), (ra, _) in zip(clipped, entry.region)
            )
            dst = tuple(
                slice(a - qa, b - qa)
                for (a, b), (qa, _) in zip(clipped, bounds)
            )
            out[dst] = block[src]
        return out

    def _cache_key(self, index: int) -> tuple[int, str, int, str]:
        """The partition's decoded-cache key: (file, path, index, filters).

        The filters digest covers every pipeline option — error bound
        included — so a re-declared bound can never serve stale decodes.
        """
        if self._filters_digest is None:
            self._filters_digest = json.dumps(self.filters.to_json(), sort_keys=True)
        return (self.file.cache_token, self.path, index, self._filters_digest)

    def _partition_shape(self, entry: PartitionEntry) -> tuple[int, ...] | None:
        # Region-less partitions decode against the stream's self-described
        # shape (shape=None skips the cross-check); a recorded region —
        # including a zero-size one — is verified exactly.
        return (
            tuple(b - a for a, b in entry.region)
            if entry.region is not None
            else None
        )

    def read_partition_array(self, index: int) -> np.ndarray:
        """Decode one partition through its SZ filter.

        Decoded arrays are served **read-only** from the process-wide
        decoded-partition cache (:mod:`repro.cache`); copy before mutating.
        """
        return self._partition_arrays([index])[0]

    def _partition_arrays(self, indexes: Sequence[int]) -> list[np.ndarray]:
        """Decoded (read-only) arrays for ``indexes``, in order — the one
        route every declared read takes.

        Cache hits are collected up front.  The misses' slot/overflow
        ``pread`` calls run on the calling thread (positioned reads are
        cheap and thread-safe), so every payload of the read is in memory
        at once, and they decode together through
        :meth:`FilterPipeline.invert_many`: SZ steps the lanes of the whole
        read in one pass.
        """
        cache = get_cache()
        results: dict[int, np.ndarray] = {}
        misses: list[int] = []
        for i in indexes:
            hit = cache.get(self._cache_key(i))
            if hit is not None:
                self.file.read_stats.record_hit()
                results[i] = hit
            else:
                misses.append(i)
        if misses:
            if not self.filters:
                raise HDF5Error("declared dataset has no SZ filter to decode with")
            payloads = [self.read_partition(i) for i in misses]
            shapes = [self._partition_shape(self.partition(i)) for i in misses]
            decoded = self.filters.invert_many(payloads, shapes)
            for i, data in zip(misses, decoded):
                self.file.read_stats.record_decode(data.nbytes)
                results[i] = cache.put(self._cache_key(i), data)
        return [results[i] for i in indexes]

    # -- footer serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Footer representation of this dataset's metadata."""
        blob = {
            "shape": list(self.shape),
            "dtype": dtype_tag(self.dtype),
            "layout": self.layout,
            "chunks": list(self.chunks) if self.chunks else None,
            "filters": self.filters.to_json(),
            "attrs": dict(self.attrs),
        }
        if self.layout == "contiguous":
            blob["data_offset"] = self._data_offset
        else:
            blob["partitions"] = [
                e.to_json() for _, e in sorted(self._partitions.items())
            ]
        return blob

    @classmethod
    def from_json(cls, file: "File", path: str, blob: dict) -> "Dataset":
        """Rebuild a dataset object from footer metadata."""
        ds = cls(
            file=file,
            path=path,
            shape=tuple(blob["shape"]),
            dtype=dtype_from_tag(blob["dtype"]),
            layout=blob["layout"],
            chunks=tuple(blob["chunks"]) if blob.get("chunks") else None,
            filters=FilterPipeline.from_json(blob.get("filters", [])),
        )
        ds.attrs = dict(blob.get("attrs", {}))
        if ds.layout == "contiguous":
            ds._data_offset = blob.get("data_offset")
        else:
            for e in blob.get("partitions", []):
                entry = PartitionEntry.from_json(e)
                ds._partitions[entry.index] = entry
        return ds
