"""RealDriver: executes the four write strategies on thread ranks + PHD5.

The *functional* counterpart of :class:`repro.core.writers.SimDriver`: the
same :class:`~repro.core.strategy.WriteStrategy` phase objects (the same
``OffsetTable``/``OverflowPlan`` math, the same Algorithm 1 ordering), but
running real compression on real arrays, coordinating over a real
communicator, and producing a real shared file that reads back within the
error bounds.  Sim-vs-real parity — identical per-rank predicted/actual/
overflow byte counts — is what the shared phase definitions guarantee and
what the strategy-engine tests assert.

There is one write path.  :meth:`RealDriver.write` is the collective
write — it fans the per-rank payload out over SPMD thread ranks, and it is
what the facade's flush, its ``append_step``, the ingest daemon's commit,
the verify pillars and the bench all call.  Each rank runs
:meth:`RealDriver.run`, the SPMD rank body: rank 0 creates the file
objects; all ranks then operate on the shared handles (thread ranks share
memory, as MPI ranks share the parallel file system).  Code that already
runs under :func:`repro.mpi.executor.run_spmd` may call
:meth:`RealDriver.run` with its own communicator; inside the package
:meth:`RealDriver.write` is its only caller.

Warm-start hints let a caller seed the predict and reorder phases from a
previous time-step's measured sizes — the hot path of the facade's
:meth:`~repro.api.file.File.append_step`.
"""

from __future__ import annotations

from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.compression.codec import compress_fields
from repro.compression.sz import SZCompressor
from repro.core.config import PipelineConfig
from repro.core.offsets import OffsetTable
from repro.core.strategy import field_index_map, get_strategy, predict_phase_costs
from repro.core.writers import default_models
from repro.errors import ConfigError
from repro.exec import SPMD
from repro.hdf5.dataset import Dataset
from repro.hdf5.file import File
from repro.hdf5.filters import FILTER_SZ
from repro.hdf5.properties import DatasetCreateProps
from repro.mpi.comm import RankComm
from repro.mpi.executor import run_spmd

#: Data region base: past the container header, aligned.
_BASE_OFFSET = 4096

#: Bound on waiting for one batch of queued writes, in seconds.
_WRITE_TIMEOUT_S = 60.0


def _wait_writes(writes: Mapping[str, Future], timeout: float = _WRITE_TIMEOUT_S) -> list[Any]:
    """Wait for every queued write (``label -> future``); return their
    values in submission order.

    HDF5's ``H5ESwait``: nothing is abandoned mid-flight — a write still
    running after ``timeout`` raises ``TimeoutError`` naming it, and
    otherwise the first failure in submission order is re-raised only
    after every write has settled.
    """
    _, pending = wait(writes.values(), timeout)
    if pending:
        stragglers = [label for label, fut in writes.items() if fut in pending]
        raise TimeoutError(f"queued writes still running after {timeout:g} s: {stragglers}")
    return [fut.result() for fut in writes.values()]


@dataclass
class RankWriteStats:
    """What one rank reports back from a pipeline run."""

    rank: int
    predicted_nbytes: dict[str, int]
    actual_nbytes: dict[str, int]
    overflow_nbytes: dict[str, int]
    order: list[str]

    @property
    def total_actual(self) -> int:
        """This rank's total compressed bytes."""
        return sum(self.actual_nbytes.values())

    @property
    def total_overflow(self) -> int:
        """This rank's total overflow bytes."""
        return sum(self.overflow_nbytes.values())


def _field_datasets(
    comm: RankComm,
    file: File,
    fields: Mapping[str, np.ndarray],
    global_shape: tuple[int, ...],
    codecs: Mapping[str, SZCompressor] | None,
    group: str,
) -> dict[str, Dataset]:
    """Rank 0 creates one dataset per field; everyone resolves them.

    With ``codecs`` each dataset is a declared-partition SZ dataset;
    without (raw strategies) it is a plain contiguous array.
    """
    if comm.rank == 0:
        grp = file.require_group(group)
        for name, data in fields.items():
            # The dataset dtype follows the data (float32/float64); the
            # codec streams are self-describing either way, but the footer
            # metadata must not promise float32 for a float64 field.
            if codecs is None:
                grp.create_dataset(name, shape=global_shape, dtype=data.dtype)
                continue
            codec = codecs[name]
            options = {
                "bound": codec.quantizer.requested_bound,
                "mode": codec.quantizer.mode,
                "radius": codec.radius,
            }
            dcpl = DatasetCreateProps(chunks=tuple(global_shape), filters=((FILTER_SZ, options),))
            grp.create_dataset(
                name, shape=global_shape, dtype=data.dtype, layout="declared", dcpl=dcpl
            )
    comm.barrier()
    return {name: file[f"{group}/{name}"] for name in fields}


class RealDriver:
    """Executes one of the four strategies, by name, for real on thread
    ranks against a shared PHD5 file (the functional world)."""

    #: Kept only for ``perfbench/layers.py``, which fans ranks out through
    #: it; :meth:`write` calls :func:`run_spmd` itself.
    executor = SPMD

    def __init__(
        self,
        strategy: str = "reorder",
        config: PipelineConfig | None = None,
        machine_name: str = "bebop",
    ) -> None:
        self.strategy = get_strategy(strategy)
        self.config = config or PipelineConfig()
        self.machine_name = machine_name

    def write(
        self,
        file: File,
        payload: "Sequence[tuple[Mapping[str, np.ndarray], list[list[int]]]]",
        shape: tuple[int, ...],
        codecs: Mapping[str, SZCompressor] | None = None,
        *,
        group: str = "fields",
        hints: "Sequence[tuple[Mapping[str, int] | None, Sequence[str] | None]] | None" = None,
    ) -> list[RankWriteStats]:
        """One collective write: ``payload[r]`` is rank *r*'s
        ``(fields, region)`` and the SPMD width is ``len(payload)``.

        Every rank runs :meth:`run` on its own :func:`run_spmd` thread;
        the per-rank stats come back in rank order.  ``hints[r]`` optionally
        warm-starts rank *r* with ``(predicted_hint, order_hint)``.
        """

        def rank_fn(comm: RankComm) -> RankWriteStats:
            fields, region = payload[comm.rank]
            predicted_hint, order_hint = hints[comm.rank] if hints else (None, None)
            return self.run(
                comm,
                file,
                fields,
                region,
                shape,
                codecs,
                group=group,
                predicted_hint=predicted_hint,
                order_hint=order_hint,
            )

        return run_spmd(len(payload), rank_fn)

    def run(
        self,
        comm: RankComm,
        file: File,
        fields: Mapping[str, np.ndarray],
        region: list[list[int]],
        global_shape: tuple[int, ...],
        codecs: Mapping[str, SZCompressor] | None = None,
        *,
        group: str = "fields",
        predicted_hint: Mapping[str, int] | None = None,
        order_hint: Sequence[str] | None = None,
    ) -> RankWriteStats:
        """Run this rank's share of the strategy.

        Parameters
        ----------
        fields:
            This rank's partition of every field (same local shape).
        region:
            ``[[start, stop], ...]`` of this rank's block in the global grid.
        codecs:
            Per-field configured compressors (shared across ranks); only
            required by compressing strategies.
        group:
            Group path the field datasets live under (nested paths are
            created on demand — per-time-step groups use ``steps/NNNN``).
        predicted_hint / order_hint:
            Warm-start values for the predict/reorder phases (streaming).
        """
        strat, config = self.strategy, self.config
        if not strat.compresses:
            # The one real fork: raw storage is contiguous row slabs, not
            # declared partitions, so no size plan applies.
            return self._run_raw(comm, file, fields, region, global_shape, group)
        if codecs is None:
            raise ConfigError(f"strategy {strat.name!r} requires per-field codecs")
        names = list(fields)
        index = field_index_map(names)
        datasets = _field_datasets(comm, file, fields, global_shape, codecs, group)

        # Phase 1: the sizes the plan is built from — predicted before
        # compressing (sampling, or warm-start hints), or exact after
        # compressing everything up front (the filter baseline).
        if strat.predictive:
            streams = None
            planned = strat.predict.predict_sizes(fields, codecs, config, hints=predicted_hint)
        else:
            streams = compress_fields(fields, codecs)
            planned = {n: len(streams[n]) for n in names}

        # Phase 2: one all-gather; every rank computes the same offset table.
        table = self._plan(comm, file, datasets, fields, planned, region)

        # Phase 3: optimize the compression order from predicted times.
        if order_hint is not None:
            if sorted(order_hint) != sorted(names):
                raise ConfigError("order hint is not a permutation of the fields")
            order = list(order_hint)
        elif strat.compress_write.reorder:
            tmodel, wmodel = default_models(self.machine_name, comm.size)
            compress_s, write_s = predict_phase_costs(
                tmodel, wmodel, [fields[n].size for n in names], [planned[n] for n in names]
            )
            order = strat.compress_write.field_order(names, compress_s, write_s)
        else:
            order = list(names)

        # Phase 4: compress in order; a predictive strategy queues each write
        # on the file's background pool as soon as its field is compressed,
        # the filter baseline's writes block in place (its streams already
        # exist).
        actual: dict[str, int] = {}
        tails: dict[str, bytes] = {}
        writes: dict[str, Future] = {}
        try:
            for name in order:
                stream = (
                    streams[name] if streams is not None else codecs[name].compress(fields[name])
                )
                actual[name] = len(stream)
                reserved = int(table.reserved[index[name], comm.rank])
                if strat.predictive:
                    writes[name] = file.async_engine.submit(
                        datasets[name].write_partition, comm.rank, stream
                    )
                else:
                    datasets[name].write_partition(comm.rank, stream)
                if len(stream) > reserved:
                    tails[name] = stream[reserved:]
        except BaseException:
            # A failed rank still lets the writes it queued land before it
            # reports; its own error wins over any of theirs.
            wait(writes.values(), _WRITE_TIMEOUT_S)
            raise
        _wait_writes(writes)

        overflow = dict.fromkeys(names, 0)
        if strat.predictive:
            # Phase 5: second all-gather, overflow plan, independent tail
            # writes.  An exact-size plan (filter) never leaves a tail.
            actual_gathered = comm.allgather([actual[n] for n in names])
            actual_matrix = np.array([[g[f] for g in actual_gathered] for f in range(len(names))])
            plan = strat.overflow.compute_plan(actual_matrix, table.reserved, table.data_end)
            offsets = {}
            for name, tail in tails.items():
                offsets[name], overflow[name] = plan.tail(index[name], comm.rank)
                assert overflow[name] == len(tail)
            _wait_writes(
                {
                    name: file.async_engine.submit(
                        datasets[name].write_partition_overflow, comm.rank, tail, offsets[name]
                    )
                    for name, tail in tails.items()
                }
            )
        comm.barrier()  # collective semantics: everyone leaves together
        return RankWriteStats(
            rank=comm.rank,
            predicted_nbytes=planned,
            actual_nbytes=actual,
            overflow_nbytes=overflow,
            order=order,
        )

    def _plan(
        self,
        comm: RankComm,
        file: File,
        datasets: Mapping[str, Dataset],
        fields: Mapping[str, np.ndarray],
        sizes: Mapping[str, int],
        region: list[list[int]],
    ) -> OffsetTable:
        """The planning step every compressing strategy shares: all-gather
        the per-field ``sizes`` (predicted or exact), compute the offset
        table every rank derives identically, declare the partitions."""
        names = list(fields)
        gathered = comm.allgather(
            {
                "sizes": [sizes[n] for n in names],
                "original": [int(fields[n].nbytes) for n in names],
                "region": region,
                "watermark": int(file.storage.end_of_data),
            }
        )
        size_matrix = np.array([[g["sizes"][f] for g in gathered] for f in range(len(names))])
        orig_matrix = np.array([[g["original"][f] for g in gathered] for f in range(len(names))])
        regions = [g["region"] for g in gathered]
        # Fresh files land at the fixed 4096 header gap; a persistent
        # streaming file (one group per time-step) starts each step's region
        # past the all-gathered high-water mark, page-aligned.
        high = max(g["watermark"] for g in gathered)
        base = max(_BASE_OFFSET, -(-high // _BASE_OFFSET) * _BASE_OFFSET)
        table = self.strategy.plan.compute_table(size_matrix, orig_matrix, self.config, base)
        for f, name in enumerate(names):
            datasets[name].declare_partitions(
                offsets=table.offsets[f].tolist(),
                reserved=table.reserved[f].tolist(),
                regions=regions,
            )
        return table

    def _run_raw(
        self,
        comm: RankComm,
        file: File,
        fields: Mapping[str, np.ndarray],
        region: list[list[int]],
        global_shape: tuple[int, ...],
        group: str,
    ) -> RankWriteStats:
        """Raw path (no compression): independent contiguous row-slab writes."""
        names = list(fields)
        datasets = _field_datasets(comm, file, fields, global_shape, None, group)
        start = (int(region[0][0]),) + (0,) * (len(global_shape) - 1)
        for name in names:
            datasets[name].write_slab(fields[name], start)
        comm.barrier()
        sizes = {n: int(fields[n].nbytes) for n in names}
        return RankWriteStats(
            rank=comm.rank,
            predicted_nbytes=sizes,
            actual_nbytes=sizes,
            overflow_nbytes=dict.fromkeys(names, 0),
            order=names,
        )
