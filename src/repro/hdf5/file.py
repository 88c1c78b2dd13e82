"""The File object: container lifecycle plus the object hierarchy.

Usage mirrors h5py::

    with File("snapshot.phd5", "w") as f:
        grp = f.create_group("fields")
        ds = grp.create_dataset("temperature", shape=(64, 64, 64))
        ds.write(data)

    with File("snapshot.phd5", "r") as f:
        data = f["fields/temperature"].read()

Metadata lives in memory while the file is open and is serialized to the
JSON footer on :meth:`File.close` — the moral equivalent of HDF5's metadata
cache flush.  Files not closed cleanly are unreadable (as with HDF5 without
SWMR), which the format checks explicitly.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.cache import get_cache
from repro.errors import HDF5Error, InvalidStateError
from repro.hdf5.dataset import Dataset
from repro.hdf5.group import Group
from repro.hdf5.properties import DatasetCreateProps, FileAccessProps
from repro.hdf5.storage import FileStorage

#: Process-unique file identities for decoded-partition cache keys: two
#: opens of the same path must never share cache entries.
_FILE_TOKENS = itertools.count(1)


class ReadStats:
    """Per-file read-path accounting (thread-safe counters).

    Tracks what the declared-layout read path actually did: how many
    partitions were decoded from bytes, how many were served from the
    decoded-partition cache, and how many uncompressed bytes decoding
    produced.  Surfaced by ``repro.tools.inspect summary`` and the read
    bench.
    """

    __slots__ = ("_lock", "partitions_decoded", "bytes_decoded", "cache_hits")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.partitions_decoded = 0
        self.bytes_decoded = 0
        self.cache_hits = 0

    def record_decode(self, nbytes: int) -> None:
        """Count one partition decoded from stored bytes."""
        with self._lock:
            self.partitions_decoded += 1
            self.bytes_decoded += int(nbytes)

    def record_hit(self) -> None:
        """Count one partition served from the decoded-partition cache."""
        with self._lock:
            self.cache_hits += 1

    @property
    def hit_rate(self) -> float:
        """Cache hits over all partition reads (0.0 before any read)."""
        total = self.cache_hits + self.partitions_decoded
        return self.cache_hits / total if total else 0.0

    def to_json(self) -> dict:
        return {
            "partitions_decoded": self.partitions_decoded,
            "bytes_decoded": self.bytes_decoded,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
        }


class File:
    """A PHD5 container with a root group."""

    def __init__(self, path: str, mode: str = "r", fapl: FileAccessProps | None = None) -> None:
        if mode not in ("w", "r", "r+"):
            raise HDF5Error(f"unsupported mode {mode!r}")
        self.path = path
        self.mode = mode
        self.fapl = fapl or FileAccessProps()
        self.storage = FileStorage(path, mode)
        self.root = Group(self, "/")
        self.cache_token = next(_FILE_TOKENS)
        self.read_stats = ReadStats()
        self._async_engine: ThreadPoolExecutor | None = None
        self._engine_lock = threading.Lock()
        if mode in ("r", "r+"):
            try:
                self._load_footer(self.storage.footer)
            except BaseException:
                self.storage.close()
                raise

    # -- lifecycle -------------------------------------------------------------

    @property
    def writable(self) -> bool:
        """True for files opened in "w" or "r+" mode."""
        return self.mode in ("w", "r+")

    def require_writable(self) -> None:
        """Raise unless the file accepts writes."""
        self.storage.require_open()
        if not self.writable:
            raise InvalidStateError(f"file {self.path!r} is read-only")

    @property
    def async_engine(self) -> ThreadPoolExecutor:
        """Lazily started background write pool (HDF5's async VOL threads).

        Double-checked: every rank reads this per phase, so the steady
        state must not funnel through the creation lock.
        """
        engine = self._async_engine
        if engine is None:
            with self._engine_lock:
                if self._async_engine is None:
                    self._async_engine = ThreadPoolExecutor(
                        self.fapl.async_workers, thread_name_prefix="async-io"
                    )
                engine = self._async_engine
        return engine

    def close(self) -> None:
        """Flush metadata (writable modes) and close (idempotent)."""
        if self.storage.closed:
            return
        # This identity can never be read again; purge its cached decodes.
        get_cache().invalidate(self.cache_token)
        if self._async_engine is not None:
            self._async_engine.shutdown(wait=True)
            self._async_engine = None
        if self.writable:
            self.storage.finalize(self._build_footer())
        self.storage.close()

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- delegation to the root group -------------------------------------------

    def create_group(self, name: str) -> Group:
        """Create a group under the root."""
        return self.root.create_group(name)

    def require_group(self, name: str) -> Group:
        """Get-or-create a group under the root."""
        return self.root.require_group(name)

    def create_dataset(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        layout: str = "contiguous",
        dcpl: DatasetCreateProps | None = None,
    ) -> Dataset:
        """Create a dataset under the root."""
        return self.root.create_dataset(name, shape, dtype, layout, dcpl)

    def __getitem__(self, path: str):
        return self.root[path]

    def __contains__(self, path: str) -> bool:
        return path in self.root

    # -- footer -----------------------------------------------------------------

    def _build_footer(self) -> dict:
        groups: dict[str, dict] = {"/": {"attrs": dict(self.root.attrs)}}
        datasets: dict[str, dict] = {}
        for path, obj in self.root.visit():
            if isinstance(obj, Group):
                groups[path] = {"attrs": dict(obj.attrs)}
            else:
                datasets[path] = obj.to_json()
        return {"format": "phd5", "groups": groups, "datasets": datasets}

    def _load_footer(self, footer: dict | None) -> None:
        if footer is None or footer.get("format") != "phd5":
            raise HDF5Error("missing or foreign footer")
        group_paths = sorted(p for p in footer.get("groups", {}) if p != "/")
        self.root.attrs = dict(footer["groups"].get("/", {}).get("attrs", {}))
        for path in group_paths:
            parent = self.root
            parts = [p for p in path.split("/") if p]
            for part in parts[:-1]:
                parent = parent[part]  # groups are sorted, parents exist
            # Bypass writability check when materializing from the footer.
            grp = Group(self, path)
            grp.attrs = dict(footer["groups"][path].get("attrs", {}))
            parent._links[parts[-1]] = grp
        for path, blob in sorted(footer.get("datasets", {}).items()):
            parts = [p for p in path.split("/") if p]
            parent = self.root
            for part in parts[:-1]:
                parent = parent[part]
            if not isinstance(parent, Group):
                raise HDF5Error(f"dataset parent {path!r} is not a group")
            parent._links[parts[-1]] = Dataset.from_json(self, path, blob)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.storage.closed else self.mode
        return f"<File {self.path!r} ({state})>"
