"""Groups: the hierarchical namespace.

Groups link to sub-groups and datasets by name and support ``/``-separated
path addressing from any node, mirroring h5py ergonomics
(``f["fields/temperature"]``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import HDF5Error, ObjectExistsError, ObjectNotFoundError
from repro.hdf5.dataset import Dataset
from repro.hdf5.filters import FilterPipeline
from repro.hdf5.properties import DatasetCreateProps

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdf5.file import File


def _validate_name(name: str) -> str:
    if not name or "/" in name or name in (".", ".."):
        raise HDF5Error(f"invalid link name {name!r}")
    return name


class Group:
    """One namespace node; the root group has path ``/``."""

    def __init__(self, file: "File", path: str) -> None:
        self.file = file
        self.path = path
        self.attrs: dict = {}
        self._links: dict[str, object] = {}
        self._lock = threading.Lock()

    # -- creation -------------------------------------------------------------

    def _child_path(self, name: str) -> str:
        return (self.path.rstrip("/") + "/" + name) if self.path != "/" else "/" + name

    def create_group(self, name: str) -> "Group":
        """Create (and link) a sub-group; intermediate names not allowed."""
        self.file.require_writable()
        name = _validate_name(name)
        with self._lock:
            if name in self._links:
                raise ObjectExistsError(f"{self._child_path(name)} already exists")
            group = Group(self.file, self._child_path(name))
            self._links[name] = group
            return group

    def require_group(self, name: str) -> "Group":
        """Get-or-create a sub-group.

        Accepts ``/``-separated paths, creating intermediate groups on
        demand (``f.require_group("steps/0004/fields")`` — the per-time-step
        layout streamed steps write).
        """
        node = self
        for part in [p for p in name.split("/") if p]:
            node = node._require_child(part)
        return node

    def _require_child(self, name: str) -> "Group":
        with self._lock:
            existing = self._links.get(name)
        if existing is not None:
            if not isinstance(existing, Group):
                raise HDF5Error(f"{self._child_path(name)} is not a group")
            return existing
        return self.create_group(name)

    def create_dataset(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        layout: str = "contiguous",
        dcpl: DatasetCreateProps | None = None,
    ) -> Dataset:
        """Create (and link) a dataset.

        A :class:`DatasetCreateProps` with chunks/filters describes a
        ``declared`` dataset; the contiguous layout stores raw bytes and
        refuses one rather than quietly dropping the filters.
        """
        self.file.require_writable()
        name = _validate_name(name)
        dcpl = dcpl or DatasetCreateProps()
        chunks = dcpl.chunks
        pipeline = FilterPipeline(dcpl.filters)
        if chunks is not None and layout == "contiguous":
            raise HDF5Error(
                "chunks/filters need layout='declared'; contiguous datasets store raw bytes"
            )
        with self._lock:
            if name in self._links:
                raise ObjectExistsError(f"{self._child_path(name)} already exists")
            ds = Dataset(
                file=self.file,
                path=self._child_path(name),
                shape=shape,
                dtype=np.dtype(dtype),
                layout=layout,
                chunks=chunks,
                filters=pipeline,
            )
            self._links[name] = ds
            return ds

    def unlink(self, name: str) -> None:
        """Remove the link ``name``; the footer no longer lists the object.

        Space the object reserved in the file stays allocated (unused).
        """
        self.file.require_writable()
        with self._lock:
            if self._links.pop(name, None) is None:
                raise ObjectNotFoundError(f"{self._child_path(name)} not found")

    # -- navigation -------------------------------------------------------------

    def __getitem__(self, path: str):
        """Resolve a relative ``/``-separated path to a group or dataset."""
        node: object = self
        for part in [p for p in path.split("/") if p]:
            if not isinstance(node, Group):
                raise ObjectNotFoundError(f"{path!r}: {part!r} is not a group")
            with node._lock:
                child = node._links.get(part)
            if child is None:
                raise ObjectNotFoundError(f"object {path!r} not found under {self.path!r}")
            node = child
        return node

    def __contains__(self, path: str) -> bool:
        try:
            self[path]
            return True
        except ObjectNotFoundError:
            return False

    def keys(self) -> list[str]:
        """Link names in insertion order."""
        with self._lock:
            return list(self._links)

    def items(self) -> list[tuple[str, object]]:
        """(name, object) pairs in insertion order."""
        with self._lock:
            return list(self._links.items())

    def groups(self) -> list["Group"]:
        """Directly linked sub-groups."""
        return [v for v in self._links.values() if isinstance(v, Group)]

    def datasets(self) -> list[Dataset]:
        """Directly linked datasets."""
        return [v for v in self._links.values() if isinstance(v, Dataset)]

    def visit(self):
        """Depth-first iterator over (path, object) for the whole subtree."""
        for name, obj in self.items():
            yield obj.path, obj
            if isinstance(obj, Group):
                yield from obj.visit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Group {self.path!r} ({len(self._links)} links)>"
