"""``repro.open()``: the h5py-style front door to the predictive engine.

The paper's headline claim is *deep integration*: applications keep
calling the familiar HDF5 dataset API while the predictive lossy-
compression write path engages underneath.  This module is that surface.
One :func:`open` call returns a :class:`File` whose groups and datasets
index like h5py's — and every assignment is transparently routed through
the full predict → plan → compress/write → overflow strategy pipeline
(:class:`~repro.core.pipeline.RealDriver`), every ``maxshape=(None, ...)``
dataset through one streamed step per :meth:`File.append_step`
(warm-started planning, per-step ``"auto"`` re-tuning), and every read
back through the declared-partition metadata.

The facade manages the parallelism: assignments stage blocks; when the
staged blocks tile a dataset, the file runs one collective SPMD write with
one thread rank per block (a single full assignment is partitioned
internally across ``nranks``).  Datasets sharing a group, partitioning,
and configuration flush *together* as one multi-field pipeline run, so
Algorithm 1's cross-field reordering sees the same workload an MPI
application would give it.

``RealDriver`` and ``repro.hdf5.File`` remain the engine underneath — the
facade adds no second write path, only the routing: every flush batch and
every streamed step is one
:meth:`RealDriver.write <repro.core.pipeline.RealDriver.write>` through
the same private collective write, which lands whole or leaves no
declaration behind.  Between steps the file keeps only its step state:
the series' codecs, ranks and configuration, the strategy the next step
runs, and the previous compressing step's measured sizes (and Algorithm 1
orders) that warm-start it.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Mapping

import numpy as np

from repro.api.dataset import Dataset, resolve_extent
from repro.api.settings import AUTO, DatasetSettings, validate_strategy
from repro.compression.sz import SZCompressor
from repro.core.autotune import AutoTuner, tune_payload
from repro.core.config import PipelineConfig
from repro.core.pipeline import RealDriver, warm_slot_ratios
from repro.core.session import AUTO_INITIAL_STRATEGY, StepResult, step_group
from repro.core.strategy import get_strategy
from repro.data.partition import rank_payload, rank_regions
from repro.errors import (
    ConfigError,
    HDF5Error,
    IncompleteWriteError,
    InvalidStateError,
    ObjectExistsError,
    ReadOnlyError,
    ReproError,
    ShapeMismatchError,
)
from repro.hdf5.dataset import Dataset as EngineDataset
from repro.hdf5.file import File as EngineFile
from repro.hdf5.group import Group as EngineGroup


def open(
    path: str,
    mode: str = "r",
    *,
    config: PipelineConfig | None = None,
    nranks: int = 4,
    strategy: str = "reorder",
    machine: str = "bebop",
    server: str | None = None,
):
    """Open a PHD5 container behind the h5py-style facade.

    Parameters
    ----------
    path / mode:
        File path and mode (``"r"``, ``"w"``, ``"r+"``), as in h5py.
    config:
        File-level :class:`~repro.core.config.PipelineConfig`; per-dataset
        keywords override it dataset by dataset.
    nranks:
        Default SPMD width for facade-partitioned writes (ignored when the
        application's own block assignments define the decomposition).
    strategy:
        Default write strategy for datasets that declare an error bound
        (``"auto"`` prices all four strategies per write).
    machine:
        Calibrated machine profile for ordering/tuning models.
    server:
        Address of a running ``repro serve`` daemon: ``"host:port"``,
        ``"unix:<path>"``, or a bare unix socket path (absolute or
        relative).  Writes then route over the wire and coalesce
        with other clients' requests into shared collective runs; the
        returned :class:`~repro.serve.client.RemoteFile` supports the
        write surface (``create_dataset``, ``ds[region] = arr``,
        ``append_step``, ``flush``, ``close``).  Read the finished file
        with a plain local ``repro.open(path)``.
    """
    if server is not None:
        from repro.serve.client import open_remote

        return open_remote(
            server, path, mode,
            config=config, nranks=nranks, strategy=strategy, machine=machine,
        )
    return File(
        path, mode, config=config, nranks=nranks, strategy=strategy,
        machine=machine,
    )


class Group:
    """Facade namespace node: h5py-style navigation plus dataset creation
    with per-dataset pipeline settings."""

    def __init__(self, file: "File", path: str) -> None:
        self._file = file
        self._gpath = path

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        """Absolute path of this group (h5py ``.name``)."""
        return self._gpath

    def _join(self, name: str) -> str:
        parts = [p for p in name.split("/") if p]
        base = self._gpath.rstrip("/")
        return (base + "/" + "/".join(parts)) if parts else (base or "/")

    def _engine_group(self) -> EngineGroup:
        if self._gpath == "/":
            return self._file._engine.root
        obj = self._file._engine[self._gpath]
        if not isinstance(obj, EngineGroup):
            raise HDF5Error(f"{self._gpath} is not a group")
        return obj

    @property
    def attrs(self) -> dict:
        """Attribute dictionary (persisted in the file footer)."""
        return self._engine_group().attrs

    # -- creation ------------------------------------------------------------

    def create_group(self, name: str) -> "Group":
        """Create a sub-group (intermediate groups created on demand)."""
        self._file._require_writable(f"create group {name!r}")
        parts = [p for p in name.split("/") if p]
        if not parts:
            raise HDF5Error(f"invalid group name {name!r}")
        node = self._engine_group()
        for part in parts[:-1]:
            node = node.require_group(part)
        node = node.create_group(parts[-1])
        return Group(self._file, node.path)

    def require_group(self, name: str) -> "Group":
        """Get-or-create a sub-group path."""
        self._file._require_writable(f"require group {name!r}")
        node = self._engine_group().require_group(name)
        return Group(self._file, node.path)

    def create_dataset(
        self,
        name: str,
        shape: tuple[int, ...] | None = None,
        dtype=None,
        data=None,
        *,
        maxshape: tuple | None = None,
        error_bound: float | None = None,
        bound_mode: str = "abs",
        strategy: str | None = None,
        extra_space_ratio: float | None = None,
        performance_weight: float | None = None,
        nranks: int | None = None,
    ) -> Dataset:
        """Create a dataset whose writes run the predictive pipeline.

        ``error_bound`` turns on error-bounded lossy compression (omit it
        for lossless raw storage); ``strategy`` picks one of the four write
        strategies or ``"auto"``; ``maxshape=(None, *shape)`` declares a
        time-streamed dataset (one snapshot per appended step);
        ``extra_space_ratio`` / ``performance_weight`` / ``nranks``
        override the file-level configuration per dataset.
        ``data=`` assigns immediately, as in h5py.
        """
        self._file._require_writable(f"create dataset {name!r}")
        base_shape, dtype, time_axis = resolve_extent(name, shape, dtype, data, maxshape)
        settings = DatasetSettings(
            error_bound=error_bound,
            bound_mode=bound_mode,
            strategy=strategy,
            extra_space_ratio=extra_space_ratio,
            performance_weight=performance_weight,
            nranks=nranks,
        )
        parts = [p for p in name.split("/") if p]
        if not parts:
            raise HDF5Error(f"invalid dataset name {name!r}")
        parent: Group = self
        if len(parts) > 1:
            parent = self.require_group("/".join(parts[:-1]))
        path = parent._join(parts[-1])
        ds = self._file._register_dataset(
            path, base_shape, dtype, settings, time_axis
        )
        if data is not None:
            if time_axis:
                raise ConfigError(
                    f"{path}: data= cannot seed a time-axis dataset; append "
                    "steps with File.append_step (or ds[0] = arr)"
                )
            ds[...] = data
        return ds

    # -- navigation ----------------------------------------------------------

    def __getitem__(self, name: str):
        path = self._join(name)
        ds = self._file._datasets.get(path)
        if ds is not None:
            return ds
        obj = self._file._engine[path]  # raises ObjectNotFoundError
        if isinstance(obj, EngineGroup):
            return Group(self._file, obj.path)
        return self._file._dataset_from_engine(path, obj)

    def __contains__(self, name: str) -> bool:
        if self._join(name) in self._file._datasets:
            return True
        return self._join(name) in self._file._engine

    def keys(self) -> list[str]:
        """Direct child link names (staged facade datasets included)."""
        names: list[str] = []
        try:
            names = list(self._engine_group().keys())
        except ReproError:  # group not materialized in the engine yet
            names = []
        prefix = (self._gpath.rstrip("/") or "") + "/"
        for path in self._file._datasets:
            if not path.startswith(prefix):
                continue
            leaf = path[len(prefix):]
            if "/" not in leaf and leaf not in names:
                names.append(leaf)
        return names

    def items(self) -> list[tuple[str, object]]:
        """(name, facade object) pairs for the direct children."""
        return [(k, self[k]) for k in self.keys()]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def _walk(self, prefix: str = ""):
        for k in self.keys():
            obj = self[k]
            rel = prefix + k
            yield rel, obj
            if isinstance(obj, Group):
                yield from obj._walk(rel + "/")

    def visit(self, func):
        """h5py-style ``visit``: call ``func(relative_name)`` for every
        object below this group; the first non-None return stops the walk."""
        for rel, _obj in self._walk():
            out = func(rel)
            if out is not None:
                return out
        return None

    def visititems(self, func):
        """h5py-style ``visititems``: ``func(relative_name, object)``."""
        for rel, obj in self._walk():
            out = func(rel, obj)
            if out is not None:
                return out
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<repro.api.Group {self._gpath!r} ({len(self.keys())} members)>"


class File(Group):
    """A facade container: one :class:`~repro.hdf5.file.File` underneath,
    every write routed through the predictive strategy engine."""

    def __init__(
        self,
        path: str,
        mode: str = "r",
        *,
        config: PipelineConfig | None = None,
        nranks: int = 4,
        strategy: str = "reorder",
        machine: str = "bebop",
    ) -> None:
        if nranks <= 0:
            raise ConfigError("nranks must be positive")
        self.config = config or PipelineConfig()
        self.nranks = int(nranks)
        self.default_strategy = validate_strategy(strategy)
        self.machine = machine
        self.mode = mode
        self._engine = EngineFile(path, mode)
        self._datasets: dict[str, Dataset] = {}
        self._time: list[Dataset] = []
        #: every landed step's arrays, the reference :meth:`verify`
        #: certifies the streamed steps against.
        self._steps: list[dict[str, np.ndarray]] = []
        # Step state, fixed or measured by the steps themselves: the
        # series' codecs, ranks and config (set by the first step), the
        # strategy the next step runs, and the last compressing step's
        # per-rank actual sizes, Algorithm 1 orders and slot ratios (the
        # next step's warm start; the ratios carry the miss it observed).
        self._step_codecs: dict[str, SZCompressor] | None = None
        self._step_nranks = self.nranks
        self._step_config = self.config
        self._step_auto = False
        self._step_strategy = AUTO_INITIAL_STRATEGY
        self._prev_actual: list[dict[str, int]] | None = None
        self._prev_orders: list[list[str]] | None = None
        self._prev_ratios: list[dict[str, float]] | None = None
        self._step_stage: dict[str, np.ndarray] = {}
        self._loaded_steps = 0
        self._lock = threading.Lock()
        super().__init__(self, "/")
        if mode in ("r", "r+"):
            self._load_existing()

    # -- lifecycle -----------------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem path of the container."""
        return self._engine.path

    @property
    def filename(self) -> str:
        """h5py alias for :attr:`path`."""
        return self._engine.path

    @property
    def read_stats(self):
        """Per-file read-path counters: partitions decoded, decoded-partition
        cache hits, and uncompressed bytes produced (see
        :class:`repro.hdf5.file.ReadStats`)."""
        return self._engine.read_stats

    @property
    def writable(self) -> bool:
        """True for files opened in "w" or "r+" mode."""
        return self.mode in ("w", "r+")

    def _require_writable(self, action: str) -> None:
        self._engine.storage.require_open()
        if not self.writable:
            raise ReadOnlyError(
                f"cannot {action}: {self.path!r} is open read-only "
                f"(mode {self.mode!r}); reopen with repro.open(path, 'w') "
                "to write"
            )

    @property
    def steps_written(self) -> int:
        """Time steps streamed into the file so far."""
        return self._loaded_steps + len(self._steps)

    def close(self) -> None:
        """Flush staged writes, persist metadata, and close (idempotent).

        A close with incompletely staged datasets raises
        :class:`~repro.errors.IncompleteWriteError` and leaves the file
        *open* on purpose: assign the missing region(s) and close again.
        """
        self._close_impl()

    def _close_impl(self, on_error: bool = False) -> None:
        if self._engine.storage.closed:
            return
        if self.writable and not on_error:
            if self._step_stage:
                missing = sorted(
                    {ds.leaf for ds in self._time} - set(self._step_stage)
                )
                raise IncompleteWriteError(
                    f"step {self.steps_written} is partially staged "
                    f"(have {sorted(self._step_stage)}, missing {missing}); "
                    "assign the remaining fields before closing"
                )
            self.flush()
            incomplete = [
                ds for ds in self._datasets.values()
                if not ds.time_axis and ds._engine is None and ds._blocks
            ]
            if incomplete:
                detail = ", ".join(
                    f"{ds._path} ({ds._staged_nvalues()}/{ds.size} elements)"
                    for ds in incomplete
                )
                raise IncompleteWriteError(
                    f"staged writes do not cover {detail}; assign the "
                    "remaining region(s) — the predictive plan needs the "
                    "full extent — or reopen in 'w' mode to start over"
                )
            self._persist_facade_metadata()
        self._engine.close()
        # A closed file's datasets, and the file as its own root group,
        # refer to it weakly: the file <-> dataset cycle would keep every
        # staged block (a full copy of the written data, the reference
        # verify() certifies against) alive after the caller drops the
        # file, until the cyclic garbage collector next runs.
        closed = weakref.proxy(self)
        self._file = closed
        for ds in self._datasets.values():
            ds._file = closed

    def discard_incomplete(self, only: "set[str] | None" = None) -> list[str]:
        """Drop snapshot datasets whose staged blocks do not tile their
        extent (and any partially staged step), so :meth:`close` can
        proceed; returns the dropped dataset paths.

        The ingest daemon uses this when a client disconnects mid-stream:
        the orphaned partial data must not wedge the shared file open
        forever, and silently writing a half-staged dataset would violate
        the predictive plan's full-extent requirement.  ``only`` restricts
        the sweep to the named datasets (the daemon passes the
        disconnected client's own datasets so other clients' in-progress
        staging survives); None sweeps everything.
        """
        allowed = (
            None if only is None else {n.lstrip("/") for n in only}
        )
        doomed = [
            path
            for path, ds in self._datasets.items()
            if not ds.time_axis
            and ds._engine is None
            and ds._blocks
            and not ds._complete()
            and (allowed is None or path.lstrip("/") in allowed)
        ]
        for path in doomed:
            del self._datasets[path]
        if self._step_stage and only is None:
            staged = sorted(self._step_stage)
            self._step_stage = {}
            doomed.append(f"step {self.steps_written} ({', '.join(staged)})")
        return doomed

    def _persist_facade_metadata(self) -> None:
        root = self._engine.root.attrs
        root["repro:facade"] = 1
        if self._time:
            root["repro:time_datasets"] = [ds.leaf for ds in self._time]
            root["repro:n_steps"] = self.steps_written
            for ds in self._time:
                if not self.steps_written:
                    continue
                eng0 = self._engine[f"{step_group(0)}/{ds.leaf}"]
                eng0.attrs.update(ds._attrs)
                eng0.attrs.update(self._meta_attrs(
                    ds, ds.settings.resolved_strategy(self.default_strategy),
                    self._step_nranks,
                ))

    @staticmethod
    def _meta_attrs(ds: Dataset, strategy_name: str, nranks: int) -> dict:
        meta = {
            "repro:facade": 1,
            "repro:strategy": strategy_name,
            "repro:nranks": int(nranks),
        }
        if ds.settings.error_bound is not None:
            meta["repro:error_bound"] = float(ds.settings.error_bound)
            meta["repro:bound_mode"] = ds.settings.bound_mode
        return meta

    def __enter__(self) -> "File":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        # Close without flushing half-staged state: a facade error must not
        # be masked by close-time failures.
        self._close_impl(on_error=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._engine.storage.closed else self.mode
        return f"<repro.api.File {self.path!r} ({state})>"

    # -- dataset registry ----------------------------------------------------

    def _register_dataset(
        self, path, base_shape, dtype, settings, time_axis
    ) -> Dataset:
        with self._lock:
            existing = self._datasets.get(path)
            if existing is not None:
                raise ObjectExistsError(f"{path} already exists")
            if path in self._engine:
                raise ObjectExistsError(f"{path} already exists in the file")
            # Fail at creation, not at flush: a compressing strategy with
            # no bound (or an unknown name) should point at this call.
            settings.resolved_strategy(self.default_strategy)
            if time_axis:
                self._check_time_dataset(path, base_shape, settings)
            ds = Dataset(self, path, base_shape, dtype, settings, time_axis)
            self._datasets[path] = ds
            if time_axis:
                self._time.append(ds)
            return ds

    def _check_time_dataset(self, path, base_shape, settings) -> None:
        if "/" in path.lstrip("/"):
            raise ConfigError(
                f"{path}: time-axis datasets must live at the file root "
                "(their steps stream into the shared steps/NNNN groups)"
            )
        if settings.error_bound is None:
            raise ConfigError(
                f"{path}: time-axis datasets require error_bound=... "
                "(streamed steps plan from predicted compressed sizes)"
            )
        if self._step_codecs is not None:
            raise InvalidStateError(
                f"{path}: cannot add time-axis datasets after the first "
                "step was appended"
            )
        if self._time and self._time[0]._base_shape != tuple(base_shape):
            raise ShapeMismatchError(
                f"{path}: time-axis shape {tuple(base_shape)} != existing "
                f"series shape {self._time[0]._base_shape} (one session, "
                "one grid)"
            )

    def _dataset_from_engine(self, path: str, obj: EngineDataset) -> Dataset:
        attrs = obj.attrs
        bound = attrs.get("repro:error_bound")
        mode = attrs.get("repro:bound_mode", "abs")
        if bound is None:
            options = obj.filters.sz_options
            if options is not None:
                bound = options.get("bound")
                mode = options.get("mode", "abs")
        strategy = attrs.get("repro:strategy")
        try:
            settings = DatasetSettings(
                error_bound=bound, bound_mode=mode, strategy=strategy,
                nranks=attrs.get("repro:nranks"),
            )
        except ReproError:
            settings = DatasetSettings(error_bound=bound, bound_mode=mode)
        ds = Dataset(self, path, obj.shape, obj.dtype, settings)
        ds._engine = obj
        return ds

    def _load_existing(self) -> None:
        meta = self._engine.root.attrs
        self._loaded_steps = int(meta.get("repro:n_steps", 0))
        steps_prefix = "/steps/"
        for path, obj in self._engine.root.visit():
            if isinstance(obj, EngineDataset) and not path.startswith(steps_prefix):
                self._datasets[path] = self._dataset_from_engine(path, obj)
        for name in list(meta.get("repro:time_datasets", [])):
            if not self._loaded_steps:
                continue
            eng0 = self._engine[f"{step_group(0)}/{name}"]
            proto = self._dataset_from_engine("/" + name, eng0)
            ds = Dataset(
                self, "/" + name, eng0.shape, eng0.dtype, proto.settings,
                time_axis=True,
            )
            ds._attrs = eng0.attrs
            self._datasets["/" + name] = ds
            self._time.append(ds)

    # -- snapshot flush (facade-managed parallelism) -------------------------

    def flush(self) -> None:
        """Run every complete staged dataset through the strategy engine.

        Datasets sharing a parent group, partitioning, strategy, and
        configuration flush together as one collective multi-field
        pipeline run — the cross-field compression-order optimization
        works exactly as it does for a driver-level application.
        """
        if not self.writable:
            return
        if self._engine.storage.closed:
            return
        batches: dict[tuple, list[Dataset]] = {}
        for ds in self._datasets.values():
            if ds.time_axis or ds._engine is not None or not ds._complete():
                continue
            regions_key = tuple(
                tuple(tuple(ab) for ab in regions)
                for regions in sorted(r for r, _ in ds._blocks)
            )
            key = (
                ds.parent_path,
                ds._base_shape,
                regions_key,
                ds.settings.resolved_strategy(self.default_strategy),
                ds.settings.resolved_config(self.config),
                ds.settings.nranks,
            )
            batches.setdefault(key, []).append(ds)
        for (parent, shape, tiling, strategy_name, cfg, nranks), dss in batches.items():
            try:
                strategy, payload, stats = self._collective_write(
                    parent, shape, {ds.leaf: ds._blocks for ds in dss},
                    self._codecs(dss), strategy_name, cfg, nranks or self.nranks,
                    tiling=tiling,
                )
            except Exception:
                # The rejected datasets leave staging with their error, so
                # close() still finalises what already landed and the
                # names can be created again.
                for ds in dss:
                    del self._datasets[ds._path]
                raise
            for ds in dss:
                engine_ds = self._engine[ds._path]
                engine_ds.attrs.update(ds._attrs)
                engine_ds.attrs.update(self._meta_attrs(ds, strategy.name, len(payload)))
                ds._engine = engine_ds
                ds.stats = stats

    @staticmethod
    def _codecs(dss) -> dict[str, SZCompressor]:
        """One codec per error-bounded dataset of ``dss``."""
        return {
            ds.leaf: SZCompressor(
                bound=ds.settings.error_bound, mode=ds.settings.bound_mode
            )
            for ds in dss
            if ds.settings.error_bound is not None
        }

    def _collective_write(
        self, group, shape, tiles, codecs, strategy_name, cfg, nranks,
        *, tiling=None, hints=None,
    ):
        """One collective :meth:`RealDriver.write` of ``tiles`` into
        ``group``: the write every flush batch and every streamed step runs.

        ``tiles[name]`` is a field's whole array or its staged
        ``(region, block)`` tiles; the caller's own block ``tiling`` is the
        rank decomposition when it has one.  ``"auto"`` is priced cold from
        sampled sizes and the winner executes.  The write lands whole or
        leaves nothing behind: a failure unlinks every dataset it declared
        and any group it created.  Returns the executed strategy, the
        per-rank payload and the per-rank stats.
        """
        names = list(tiles)

        def split(slabs: bool):
            # A single full assignment is partitioned internally (grid
            # blocks for compressing strategies, row slabs for raw).
            try:
                regions = rank_regions(shape, nranks, slabs=slabs, tiling=tiling)
            except ValueError as exc:
                raise ConfigError(
                    f"cannot partition shape {shape} across {nranks} ranks: "
                    f"{exc}; reduce nranks (per dataset or at repro.open)"
                ) from None
            return rank_payload(tiles, shape, regions)

        parts = [p for p in group.split("/") if p]
        prefixes = ["/".join(parts[: i + 1]) for i in range(len(parts))]
        new_group = next((p for p in prefixes if p not in self._engine), None)
        linked = {n for n in names if f"{group}/{n}" in self._engine}
        try:
            if strategy_name == AUTO:
                tuner = AutoTuner(machine=self.machine, config=cfg)
                strategy_name = tune_payload(
                    tuner, names, split(slabs=False), codecs, name=f"facade:{group}"
                ).choice
            driver = RealDriver(strategy_name, config=cfg, machine_name=self.machine)
            payload = split(slabs=not driver.strategy.compresses)
            stats = driver.write(self._engine, payload, shape, codecs, group=group, hints=hints)
        except Exception:
            if new_group is not None and new_group in self._engine:
                head, _, leaf = new_group.rpartition("/")
                self._engine.root[head].unlink(leaf)
            else:
                for n in names:
                    if n not in linked and f"{group}/{n}" in self._engine:
                        self._engine[group].unlink(n)
            raise
        return driver.strategy, payload, stats

    # -- time axis ------------------------------------------------------------

    def datasets(self) -> list[Dataset]:
        """Every facade dataset (snapshot and time-axis) in creation order
        (read mode: in load order, time-axis datasets last)."""
        return list(self._datasets.values())

    def append_step(self, fields: Mapping[str, np.ndarray]):
        """Stream one snapshot of every time-axis dataset as a new step.

        The step is one collective write into ``steps/NNNN`` — the same
        write a flush batch runs — planned from the previous step's
        measured sizes (warm start) and re-tuned per step under
        ``strategy="auto"``.  A rejected step leaves no ``steps/NNNN``
        behind, so the same step can be appended again.  Returns the
        step's :class:`~repro.core.session.StepResult`.
        """
        self._require_writable("append a step")
        if self._step_stage:
            raise InvalidStateError(
                f"step {self.steps_written} is partially staged via ds[t]= "
                f"({sorted(self._step_stage)}); finish that step before "
                "calling append_step"
            )
        arrays = self._validate_step_fields(fields)
        return self._write_step(arrays)

    def _validate_step_fields(self, fields) -> dict[str, np.ndarray]:
        if not self._time:
            raise InvalidStateError(
                "no time-axis datasets; create them first with "
                "create_dataset(name, shape, maxshape=(None, *shape), "
                "error_bound=...)"
            )
        names = [ds.leaf for ds in self._time]
        if set(fields) != set(names):
            missing = sorted(set(names) - set(fields))
            extra = sorted(set(fields) - set(names))
            raise ShapeMismatchError(
                f"append_step needs exactly the time-axis fields {names}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        return {ds.leaf: self._step_array(ds, fields[ds.leaf]) for ds in self._time}

    def _step_array(self, ds: Dataset, value) -> np.ndarray:
        """One field of the next step, validated and in the dataset dtype."""
        if self.mode == "r+" and self._loaded_steps:
            raise InvalidStateError(
                "appending to an existing step series is not supported; "
                "rewrite the file in 'w' mode"
            )
        a = np.asarray(value)
        if tuple(a.shape) != ds._base_shape:
            raise ShapeMismatchError(
                f"{ds._path}: step array shape {tuple(a.shape)} != "
                f"dataset shape {ds._base_shape}"
            )
        return np.ascontiguousarray(a, dtype=ds._dtype)

    def _write_step(self, arrays: dict[str, np.ndarray]) -> StepResult:
        if self._step_codecs is None:
            self._start_series()
        step = self.steps_written
        group = step_group(step)
        warm = get_strategy(self._step_strategy).predictive and self._prev_actual is not None
        hints = None
        if warm:
            orders = self._prev_orders or [None] * len(self._prev_actual)
            hints = list(zip(self._prev_actual, orders, self._prev_ratios))
        t0 = time.perf_counter()
        strategy, payload, stats = self._collective_write(
            group, self._time[0]._base_shape, arrays, self._step_codecs,
            self._step_strategy, self._step_config, self._step_nranks, hints=hints,
        )
        seconds = time.perf_counter() - t0
        # Only a step that landed becomes reference data, so the retained
        # steps and the file cannot drift apart.
        self._steps.append(arrays)
        if strategy.compresses:
            # Raw-write actuals are partition sizes, useless as compressed-
            # size hints — only compressing steps refresh the warm state.
            actual = [dict(s.actual_nbytes) for s in stats]
            self._prev_ratios = warm_slot_ratios(
                actual, self._prev_actual, self._step_config.extra_space_ratio
            )
            self._prev_actual = actual
            # Only an Algorithm-1 step produces an optimized order worth
            # reusing; seeding a later reorder step with another strategy's
            # insertion order would silently disable the optimization.
            self._prev_orders = (
                [list(s.order) for s in stats] if strategy.compress_write.reorder else None
            )
        tuning = None
        if self._step_auto:
            # Re-pick the next step's strategy from this step's measured
            # actuals; a raw step measured no compressed sizes, so they are
            # probed instead — otherwise a series that once picked a raw
            # strategy could never notice drifting back into a compressible
            # regime.  The next step warm-starts (skips the sampling pass)
            # whenever compressed hints exist, so predictive candidates are
            # priced without the prediction overhead then.
            tuner = AutoTuner(self.machine, config=self._step_config)
            measured = [s.actual_nbytes for s in stats] if strategy.compresses else None
            tuning = tune_payload(
                tuner, list(arrays), payload, self._step_codecs, measured,
                name=f"step{step}", warm_start=self._prev_actual is not None,
            )
            self._step_strategy = tuning.choice
        return StepResult(
            step=step, group=group, warm_started=warm, seconds=seconds, stats=stats,
            strategy=strategy.name, tuning=tuning,
        )

    def _start_series(self) -> None:
        """Fix the series' codecs, ranks, config and strategy (first step)."""
        strategies = {
            ds.settings.resolved_strategy(self.default_strategy)
            for ds in self._time
        }
        if len(strategies) > 1:
            raise ConfigError(
                "time-axis datasets stream through one shared session but "
                f"declare conflicting strategies {sorted(strategies)}"
            )
        configs = {ds.settings.resolved_config(self.config) for ds in self._time}
        if len(configs) > 1:
            raise ConfigError(
                "time-axis datasets declare conflicting pipeline overrides "
                "(extra_space_ratio / performance_weight must agree across "
                "the series)"
            )
        nranks_set = {
            ds.settings.nranks for ds in self._time
            if ds.settings.nranks is not None
        }
        if len(nranks_set) > 1:
            raise ConfigError(
                f"time-axis datasets declare conflicting nranks {sorted(nranks_set)}"
            )
        strategy = strategies.pop()
        self._step_auto = strategy == AUTO
        if not self._step_auto:
            self._step_strategy = strategy
        self._step_config = configs.pop()
        self._step_nranks = nranks_set.pop() if nranks_set else self.nranks
        self._step_codecs = self._codecs(self._time)

    def _stage_step_field(self, ds: Dataset, step: int, value) -> None:
        expected = self.steps_written
        if step != expected:
            raise InvalidStateError(
                f"{ds._path}: steps append in order; next step is "
                f"{expected}, got {step}"
            )
        self._step_stage[ds.leaf] = self._step_array(ds, value)
        if set(self._step_stage) == {d.leaf for d in self._time}:
            stage, self._step_stage = self._step_stage, {}
            self._write_step({d.leaf: stage[d.leaf] for d in self._time})

    def _step_engine_dataset(self, ds: Dataset, step: int) -> EngineDataset:
        return self._engine[f"{step_group(step)}/{ds.leaf}"]

    # -- verification --------------------------------------------------------

    def verify(self):
        """Certify what this handle wrote; returns a
        :class:`~repro.verify.certify.CertificationReport`.

        Every dataset written through this handle is certified against its
        retained staged data, and every streamed step against its retained
        step arrays — call before or after :meth:`close`; after close the
        serialized footer is what gets exercised.  A read-mode handle
        retains no reference data: certify its file with
        ``repro.verify.certify(path, arrays)`` instead.
        """
        from repro.verify.certify import (
            CertificationReport,
            certify,
            certify_dataset,
        )

        if not self.writable:
            raise InvalidStateError(
                f"{self.path!r} is open read-only and retains no reference "
                "data to certify against; use repro.verify.certify(path, "
                "arrays) with the arrays that were written"
            )
        closed = self._engine.storage.closed
        if not closed:
            self.flush()
        source = EngineFile(self.path, "r") if closed else self._engine
        try:
            report = CertificationReport(path=self.path)
            for path, ds in self._datasets.items():
                # Only datasets written *this session* carry reference
                # blocks; datasets loaded from disk in "r+" mode have no
                # reference to certify against (their _blocks are empty —
                # certifying them against zeros would be a false alarm).
                if ds.time_axis or ds._engine is None or not ds._blocks:
                    continue
                report.certificates.append(
                    certify_dataset(
                        source[path], ds._reference(), label=path.lstrip("/")
                    )
                )
            for step, arrays in enumerate(self._steps):
                sub = certify(source, arrays, group=step_group(step))
                report.certificates.extend(sub.certificates)
            return report
        finally:
            if closed:
                source.close()
