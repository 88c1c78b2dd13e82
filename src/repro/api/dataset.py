"""The facade Dataset: h5py indexing in front of the predictive engine.

A facade dataset is *write-once by region*: each ``ds[region] = arr``
assignment stages one disjoint block, and once the staged blocks tile the
full extent the file flushes them through the strategy engine as one
collective predictive write — each staged block becomes one SPMD rank's
partition, exactly the decomposition an MPI application would hand to
parallel HDF5.  A single full assignment (``ds[...] = arr``) is
partitioned internally instead.  Reads decompress transparently through
the declared-partition metadata; sub-region reads decode only the
partitions that intersect the request.

Time-axis datasets (created with ``maxshape=(None, *shape)``) stream one
snapshot per :meth:`File.append_step <repro.api.file.File.append_step>`
(or per completed ``ds[t] = arr`` step) and index as ``ds[t]`` /
``ds[...]`` with the step axis first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.api.settings import DatasetSettings
from repro.data.partition import assemble_tiles
from repro.errors import (
    ConfigError,
    HDF5Error,
    IncompleteWriteError,
    InvalidStateError,
    ShapeMismatchError,
    UnwrittenDataError,
)
from repro.hdf5.dataset import Dataset as EngineDataset

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.file import File


def _selection(key, shape: tuple[int, ...]):
    """Normalize an indexing key to ``(regions, value_shape)``.

    ``regions`` is the full-rank ``[[start, stop], ...]`` block the key
    selects; ``value_shape`` is the numpy-semantics shape of the selected
    data (integer axes dropped).  Raises :class:`HDF5Error` for selections
    the predictive layout cannot express (steps, fancy indexing).
    """
    if key is Ellipsis:
        key = (Ellipsis,)
    if not isinstance(key, tuple):
        key = (key,)
    n_ellipsis = sum(1 for k in key if k is Ellipsis)
    if n_ellipsis > 1:
        raise HDF5Error("at most one Ellipsis per selection")
    if n_ellipsis:
        i = key.index(Ellipsis)
        fill = len(shape) - (len(key) - 1)
        if fill < 0:
            raise ShapeMismatchError(
                f"selection has more axes than the dataset rank {len(shape)}"
            )
        key = key[:i] + (slice(None),) * fill + key[i + 1:]
    if len(key) != len(shape):
        raise ShapeMismatchError(
            f"selection rank {len(key)} != dataset rank {len(shape)} "
            "(use ':' or '...' for unselected axes)"
        )
    regions: list[list[int]] = []
    value_shape: list[int] = []
    for k, dim in zip(key, shape):
        if isinstance(k, (int, np.integer)):
            i = int(k) + (dim if k < 0 else 0)
            if not 0 <= i < dim:
                raise HDF5Error(f"index {int(k)} out of bounds for axis of length {dim}")
            regions.append([i, i + 1])
        elif isinstance(k, slice):
            start, stop, step = k.indices(dim)
            if step != 1:
                raise HDF5Error("strided selections are not supported")
            stop = max(start, stop)
            regions.append([start, stop])
            value_shape.append(stop - start)
        else:
            raise HDF5Error(f"unsupported selection component {k!r}")
    return regions, tuple(value_shape)


def select_block(name: str, key, shape: tuple[int, ...], dtype, value):
    """Read ``ds[key] = value`` as ``(regions, block)`` — the one reading of
    an assignment, shared by the local and the served dataset handle.

    ``block`` is ``value`` as a C-contiguous ``dtype`` array of the
    full-rank shape ``regions`` selects (it may share memory with
    ``value``).
    """
    regions, value_shape = _selection(key, shape)
    value = np.asarray(value)
    if tuple(value.shape) != value_shape:
        raise ShapeMismatchError(
            f"{name}: assigned array shape {tuple(value.shape)} does "
            f"not match the selected region shape {value_shape}"
        )
    block = np.ascontiguousarray(value, dtype=dtype).reshape(
        tuple(b - a for a, b in regions)
    )
    return regions, block


def resolve_extent(name: str, shape, dtype, data, maxshape):
    """Read ``create_dataset``'s ``shape``/``dtype``/``data``/``maxshape``
    as ``(base_shape, dtype, time_axis)`` — the one reading of those
    arguments, shared by the local facade and the served file handle.

    ``maxshape=(None, *shape)`` declares the unlimited step axis (``shape``
    may be the snapshot shape or ``(0, *shape)``); a fixed ``maxshape`` must
    equal ``shape``.
    """
    if data is not None:
        data = np.asarray(data)
        if shape is None:
            shape = data.shape
        if dtype is None:
            dtype = data.dtype
    if shape is None:
        raise ConfigError(f"dataset {name!r}: pass shape=... or data=...")
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(np.float32 if dtype is None else dtype)
    if maxshape is None:
        return shape, dtype, False
    maxshape = tuple(maxshape)
    if any(m is None for m in maxshape[1:]):
        raise ConfigError(
            f"dataset {name!r}: only the first axis can be unlimited"
        )
    if maxshape and maxshape[0] is None:
        rest = tuple(int(m) for m in maxshape[1:])
        if shape not in (rest, (0,) + rest):
            raise ShapeMismatchError(
                f"dataset {name!r}: shape {shape} does not match "
                f"maxshape {maxshape} (expected {rest} or {(0,) + rest})"
            )
        return rest, dtype, True
    if tuple(int(m) for m in maxshape) != shape:
        raise ConfigError(
            f"dataset {name!r}: fixed maxshape {maxshape} != shape {shape}"
        )
    return shape, dtype, False


def _overlaps(a: list[list[int]], b: list[list[int]]) -> bool:
    """True when two full-rank regions intersect."""
    return all(a0 < b1 and b0 < a1 for (a0, a1), (b0, b1) in zip(a, b))


class Dataset:
    """One named array in a facade :class:`~repro.api.file.File`."""

    def __init__(
        self,
        file: "File",
        path: str,
        shape: tuple[int, ...],
        dtype,
        settings: DatasetSettings,
        time_axis: bool = False,
    ) -> None:
        self._file = file
        self._path = path
        self._base_shape = tuple(int(s) for s in shape)
        self._dtype = np.dtype(dtype)
        self.settings = settings
        self.time_axis = bool(time_axis)
        #: staged ``(regions, block)`` pairs; retained after flush as the
        #: reference data :meth:`File.verify` certifies against.
        self._blocks: list[tuple[list[list[int]], np.ndarray]] = []
        self._engine: EngineDataset | None = None
        self._attrs: dict = {}
        #: per-rank :class:`~repro.core.pipeline.RankWriteStats` of the
        #: collective run that wrote this dataset (None until written).
        self.stats = None

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        """Absolute path of the dataset inside the file (h5py ``.name``)."""
        return self._path

    @property
    def leaf(self) -> str:
        """Final path component (the engine dataset's link name)."""
        return self._path.rsplit("/", 1)[-1]

    @property
    def parent_path(self) -> str:
        """Path of the containing group (``"/"`` for root-level datasets)."""
        head = self._path.rsplit("/", 1)[0]
        return head or "/"

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._dtype

    @property
    def shape(self) -> tuple[int, ...]:
        """Current shape; time-axis datasets grow along axis 0 per step."""
        if self.time_axis:
            return (self._file.steps_written,) + self._base_shape
        return self._base_shape

    @property
    def maxshape(self) -> tuple:
        """h5py-style maxshape; ``None`` marks the unlimited step axis."""
        if self.time_axis:
            return (None,) + self._base_shape
        return self._base_shape

    @property
    def size(self) -> int:
        """Number of elements currently addressable."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def __len__(self) -> int:
        if not self.shape:
            raise HDF5Error("len() of a scalar dataset")
        return self.shape[0]

    @property
    def attrs(self) -> dict:
        """Attribute dictionary (persisted in the file footer)."""
        if self._engine is not None:
            return self._engine.attrs
        return self._attrs

    @property
    def written(self) -> bool:
        """True once data has reached the engine (flushed or streamed)."""
        if self.time_axis:
            return self._file.steps_written > 0
        return self._engine is not None

    # -- writing -------------------------------------------------------------

    def __setitem__(self, key, value) -> None:
        self._file._require_writable(f"write to {self._path}")
        if self.time_axis:
            if not isinstance(key, (int, np.integer)):
                raise HDF5Error(
                    f"{self._path}: time-axis datasets are written one whole "
                    "step at a time (ds[t] = arr, or File.append_step)"
                )
            self._file._stage_step_field(self, int(key), value)
            return
        if self._engine is not None:
            raise InvalidStateError(
                f"{self._path}: dataset already written; the predictive "
                "layout is write-once — use a time-axis dataset "
                "(maxshape=(None, ...)) for evolving data"
            )
        regions, block = select_block(
            self._path, key, self._base_shape, self._dtype, value
        )
        if np.shares_memory(block, np.asarray(value)):
            # Copy at assignment time (h5py semantics): the staged block is
            # both what gets written at flush and the reference data
            # verify() certifies against, so later caller mutations of the
            # source array must not leak into either.
            block = block.copy()
        self._stage(regions, block)

    def _stage(self, regions: list[list[int]], block: np.ndarray) -> None:
        for i, (existing, _) in enumerate(self._blocks):
            if existing == regions:
                self._blocks[i] = (regions, block)  # pre-flush rewrite
                return
            if _overlaps(existing, regions):
                raise InvalidStateError(
                    f"{self._path}: region {regions} overlaps previously "
                    f"staged {existing}; the predictive plan needs one "
                    "disjoint block per rank (re-assign the exact same "
                    "region to replace it)"
                )
        self._blocks.append((regions, block))

    def _staged_nvalues(self) -> int:
        total = 0
        for regions, _ in self._blocks:
            n = 1
            for a, b in regions:
                n *= b - a
            total += n
        return total

    def _complete(self) -> bool:
        """True when the staged blocks tile the full extent (disjoint and
        in-bounds by construction, so the element count suffices)."""
        n = 1
        for s in self._base_shape:
            n *= s
        return bool(self._blocks) and self._staged_nvalues() == n

    def _reference(self) -> np.ndarray:
        """The written data, reassembled from the retained staged blocks."""
        return assemble_tiles(self._blocks, self._base_shape)

    # -- reading -------------------------------------------------------------

    def _require_engine(self) -> EngineDataset:
        if self._engine is None:
            if self._file.writable and self._blocks:
                self._file.flush()  # flushes this dataset iff complete
        if self._engine is None:
            if self._blocks:
                n = 1
                for s in self._base_shape:
                    n *= s
                raise IncompleteWriteError(
                    f"{self._path}: staged writes cover {self._staged_nvalues()}"
                    f"/{n} elements; assign the remaining region(s) before "
                    "reading (the predictive plan is computed over the full "
                    "extent)"
                )
            raise UnwrittenDataError(
                f"{self._path}: dataset has never been written; assign data "
                "(ds[...] = array) before reading it back"
            )
        return self._engine

    def __getitem__(self, key):
        if self.time_axis:
            return self._get_step(key)
        engine = self._require_engine()
        if key is Ellipsis:
            return engine.read()
        try:
            regions, value_shape = _selection(key, self._base_shape)
        except HDF5Error:
            # Fancy/boolean indexing: decode everything, let numpy select.
            return engine.read()[key]
        out = engine.read_region(tuple(slice(a, b) for a, b in regions))
        return out.reshape(value_shape)

    def __array__(self, dtype=None) -> np.ndarray:
        data = self[...]
        return data if dtype is None else data.astype(dtype)

    # -- time axis -----------------------------------------------------------

    def _load_step(self, step: int) -> np.ndarray:
        steps = self._file.steps_written
        i = step + (steps if step < 0 else 0)
        if not 0 <= i < steps:
            raise UnwrittenDataError(
                f"{self._path}: step {step} not written yet "
                f"({steps} step(s) so far)"
            )
        return self._file._step_engine_dataset(self, i).read()

    def _get_step(self, key):
        if isinstance(key, (int, np.integer)):
            return self._load_step(int(key))
        if isinstance(key, tuple) and key and isinstance(key[0], (int, np.integer)):
            block = self._load_step(int(key[0]))
            return block[key[1:]] if len(key) > 1 else block
        steps = self._file.steps_written
        if steps == 0:
            raise UnwrittenDataError(
                f"{self._path}: no steps written yet; append one with "
                "File.append_step (or ds[0] = arr)"
            )
        if isinstance(key, slice):
            idx = range(*key.indices(steps))
            if not idx:
                return np.empty((0,) + self._base_shape, dtype=self._dtype)
            return np.stack([self._load_step(i) for i in idx])
        # Everything else (Ellipsis, mixed tuples, fancy indexing): stack
        # all written steps and let numpy apply the selection.
        full = np.stack([self._load_step(i) for i in range(steps)])
        return full if key is Ellipsis else full[key]

    # -- introspection -------------------------------------------------------

    @property
    def declared_bound(self) -> float | None:
        """The error bound the written file itself promises (None if raw)."""
        engine = self._engine
        if engine is None and self.time_axis and self.written:
            engine = self._file._step_engine_dataset(self, 0)
        if engine is None:
            return self.settings.error_bound
        options = engine.filters.sz_options
        return float(options["bound"]) if options is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "time-axis " if self.time_axis else ""
        state = "written" if self.written else f"{len(self._blocks)} staged block(s)"
        return (
            f"<repro.api.Dataset {self._path!r} {kind}shape={self.shape} "
            f"dtype={self._dtype} ({state})>"
        )
