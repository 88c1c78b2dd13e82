"""SimDriver: executes the four write strategies on the simulator.

The strategies themselves — which phases run, how offsets are planned,
whether writes overlap, whether Algorithm 1 reorders — are the fixed table
in :mod:`repro.core.strategy`, shared with the real thread-rank driver in
:mod:`repro.core.pipeline`.  This module contributes only the *timing*
execution: cost-model compression times, simulated file-system writes, and
the synchronization structure of each phase.

Timing semantics encoded here (and measured by the paper):

* compression on a rank is sequential; one rank's outstanding async writes
  drain in issue order (single I/O stream per process) — exactly the TIME
  model the scheduler optimizes;
* the collective write releases every rank only when the aggregate buffer
  has drained, so the slowest compressor gates everyone (the baseline's
  synchronization cost);
* the overflow phase starts after a second all-gather that itself waits
  for every rank's primary writes.

Storage semantics: slots hold ``min(actual, reserved)`` bytes; tails land
in the overflow region.  ``SimResult`` carries both the paper's Fig. 16
breakdown and the Fig. 14 storage-overhead quantities, plus the offset
table / overflow plan so sim-vs-real parity is directly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.core.strategy import get_strategy, predict_phase_costs
from repro.core.workload import Workload
from repro.modeling.calibration import calibrate_write_throughput
from repro.modeling.sampling import DEFAULT_FRACTION
from repro.modeling.throughput_model import PowerLawThroughputModel
from repro.modeling.write_model import StableWriteModel
from repro.sim.engine import Environment
from repro.sim.machine import MachineProfile, get_machine
from repro.sim.resources import SimBarrier
from repro.sim.trace import TraceRecorder

#: Fixed base offset of the data region in the simulated shared file.
_BASE_OFFSET = 4096

#: Prediction overhead relative to the sampled compression fraction
#: (paper: the sampling pass costs slightly more than the fraction alone).
PREDICT_OVERHEAD_FACTOR = 1.2

#: Seconds per nfields² modeling the offset/Algorithm-1 computation every
#: rank performs after the first all-gather.
PLAN_SECONDS_PER_FIELD_SQ = 1e-7


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated parallel write."""

    strategy: str
    nranks: int
    nfields: int
    makespan_seconds: float
    predict_seconds: float
    allgather_seconds: float
    compress_seconds: float  # max over ranks of total compression time
    write_exposed_seconds: float  # write time not hidden behind compression
    overflow_seconds: float
    logical_nbytes: int  # uncompressed snapshot size
    ideal_compressed_nbytes: int  # sum of actual streams (no extra space)
    file_footprint_nbytes: int  # reserved slots + overflow region
    overflow_nbytes: int
    n_overflow_partitions: int
    trace: TraceRecorder
    #: the predictive plan (None for the baselines) — for parity checks.
    offset_table: OffsetTable | None = None
    overflow_plan: OverflowPlan | None = None

    @property
    def write_seconds(self) -> float:
        """Everything that is not compression (paper's 'write time')."""
        return self.makespan_seconds - self.compress_seconds

    @property
    def effective_ratio(self) -> float:
        """Compression ratio including extra-space waste (paper Fig. 16)."""
        return self.logical_nbytes / self.file_footprint_nbytes

    @property
    def ideal_ratio(self) -> float:
        """Compression ratio without the extra space."""
        return self.logical_nbytes / self.ideal_compressed_nbytes

    @property
    def storage_overhead_vs_ideal(self) -> float:
        """Footprint excess over the ideal compressed size (Fig. 14 y-axis)."""
        return self.file_footprint_nbytes / self.ideal_compressed_nbytes - 1.0

    @property
    def storage_overhead_vs_original(self) -> float:
        """Extra-space waste relative to the *uncompressed* data — the
        paper's headline "only 1.5% storage overhead" metric."""
        return (
            self.file_footprint_nbytes - self.ideal_compressed_nbytes
        ) / self.logical_nbytes

    def speedup_over(self, other: "SimResult") -> float:
        """Makespan ratio other/self (>1 means self is faster)."""
        return other.makespan_seconds / self.makespan_seconds


@lru_cache(maxsize=64)
def default_models(
    machine: MachineProfile | str, nranks: int
) -> tuple[PowerLawThroughputModel, StableWriteModel]:
    """Offline-calibrated Eq. (1) and Eq. (2) models for a machine/scale.

    The throughput model is fitted against the machine's ground-truth cost
    curve (as the offline calibration would); the write model measures the
    simulated PFS at the experiment's process count, mirroring Section
    IV-B.  Cached because calibration is deterministic per (machine, scale)
    — profiles are frozen dataclasses, so modified copies get their own
    cache slots.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    bit_rates = np.linspace(0.25, 24.0, 24)
    throughputs = np.array([machine.cost_model.throughput_mbps(b) for b in bit_rates])
    tmodel = PowerLawThroughputModel.fit(bit_rates, throughputs)
    wmodel = calibrate_write_throughput(
        machine, nprocs=min(nranks, 128), sizes=(2 * 2**20, 8 * 2**20, 32 * 2**20)
    )
    return tmodel, wmodel


def simulate_strategy(
    strategy: str,
    workload: Workload,
    machine: MachineProfile,
    config: PipelineConfig | None = None,
    models: tuple[PowerLawThroughputModel, StableWriteModel] | None = None,
    handle_overflow: bool = True,
) -> SimResult:
    """Run one strategy, by name, over one workload on one machine profile.

    ``handle_overflow=False`` silently grows any under-reserved slot to fit
    (the "write time without handling data overflow" reference the paper's
    Fig. 14 performance overhead is measured against).
    """
    return SimDriver(machine, models=models).run(
        strategy, workload, config=config, handle_overflow=handle_overflow
    )


def _rank_compression_seconds(cost_model, n_values, actual, outliers, unique) -> list[float]:
    """Eq. (1) compression seconds for one rank's field column.

    The cost-model evaluation is the simulator's per-rank hot loop, not
    the event engine itself.
    """
    return [
        cost_model.compression_seconds(
            n_values=int(n),
            bit_rate=8.0 * float(a) / float(n),
            n_outliers=int(o),
            n_unique_symbols=int(u),
        )
        for n, a, o, u in zip(n_values, actual, outliers, unique)
    ]


def _rank_field_order(cw, tmodel, wmodel, n_values, plan_sizes) -> list[int]:
    """Algorithm 1 ordering for one rank."""
    nfields = len(n_values)
    if not cw.reorder:
        return list(range(nfields))
    compress_s, write_s = predict_phase_costs(tmodel, wmodel, n_values, plan_sizes)
    names = [str(f) for f in range(nfields)]
    return [int(name) for name in cw.field_order(names, compress_s, write_s)]


class SimDriver:
    """Executes one of the four strategies, by name, on the discrete-event
    simulator (the timing world)."""

    def __init__(
        self,
        machine: MachineProfile,
        models: tuple[PowerLawThroughputModel, StableWriteModel] | None = None,
    ) -> None:
        self.machine = machine
        self.models = models

    def run(
        self,
        strategy: str,
        workload: Workload,
        config: PipelineConfig | None = None,
        handle_overflow: bool = True,
    ) -> SimResult:
        """Simulate one strategy over one workload; returns timing + storage."""
        strat = get_strategy(strategy)
        models = self.models or default_models(self.machine, workload.nranks)
        run = _SimRun(strat, workload, self.machine, config or PipelineConfig(),
                      models, handle_overflow)
        return run.execute()


class _SimRun:
    """One simulation run (helper holding shared state)."""

    def __init__(self, strategy, workload, machine, config, models, handle_overflow):
        self.strategy = strategy
        self.w = workload
        self.machine = machine
        self.config = config
        self.tmodel, self.wmodel = models
        self.handle_overflow = handle_overflow
        self.env = Environment()
        self.fs = machine.make_filesystem(self.env, nranks=workload.nranks)
        self.trace = TraceRecorder()
        # Canonical matrices (field-major).
        self.n_values = self.w.matrix("n_values")
        self.original = self.w.matrix("original_nbytes")
        self.actual = self.w.matrix("actual_nbytes")
        self.predicted = self.w.matrix("predicted_nbytes")
        self.outliers = self.w.matrix("n_outliers")
        self.unique = self.w.matrix("n_unique_symbols")
        self.t_primary_done = 0.0
        self.offset_table: OffsetTable | None = None
        self.overflow_plan: OverflowPlan | None = None
        # Eq. (1) seconds for every (field, rank) — the per-rank hot loop.
        # Raw strategies never read compression costs, so they skip the
        # whole matrix.
        if strategy.compresses:
            per_rank = [
                _rank_compression_seconds(
                    machine.cost_model, self.n_values[:, r], self.actual[:, r],
                    self.outliers[:, r], self.unique[:, r],
                )
                for r in range(workload.nranks)
            ]
            self.compress_s = np.asarray(per_rank, dtype=float).T
        else:
            self.compress_s = None

    # -- shared cost helpers --------------------------------------------------

    def _compress_seconds(self, f: int, r: int) -> float:
        return float(self.compress_s[f, r])

    def _predict_seconds(self, r: int) -> float:
        """Ratio/throughput prediction overhead: the sampled fraction of the
        compression pass (paper: <10% of compression time)."""
        total = sum(self._compress_seconds(f, r) for f in range(self.w.nfields))
        return total * DEFAULT_FRACTION * PREDICT_OVERHEAD_FACTOR

    def _field_orders(self) -> list[list[int]]:
        """Every rank's Algorithm 1 order."""
        cw = self.strategy.compress_write
        return [
            _rank_field_order(
                cw, self.tmodel, self.wmodel, self.n_values[:, r], self.predicted[:, r]
            )
            for r in range(self.w.nranks)
        ]

    # -- execution shapes -----------------------------------------------------

    def execute(self) -> SimResult:
        strat = self.strategy
        if not strat.compresses:
            self._run_raw()
        elif not strat.predictive:
            self._run_postplanned()
        else:
            self._run_predictive()
        makespan = self.env.run()
        return self._result(makespan)

    def _run_raw(self) -> None:
        """No compression: independent raw writes, field by field."""
        env, fs, trace = self.env, self.fs, self.trace

        def rank_proc(r: int):
            for f in range(self.w.nfields):
                t0 = env.now
                yield fs.independent_write(float(self.original[f, r]))
                trace.add(r, "write", t0, env.now, label=self.w.fields[f],
                          nbytes=int(self.original[f, r]))

        for r in range(self.w.nranks):
            env.process(rank_proc(r))
        self.offset_table = None

    def _run_postplanned(self) -> None:
        """Plan-from-actual: compress everything, all-gather exact sizes,
        then a barrier-synchronized collective write."""
        env, fs, trace = self.env, self.fs, self.trace
        nranks = self.w.nranks
        barrier = SimBarrier(env, nranks)
        allgather_t = self.machine.comm.allgather_seconds(nranks, 8.0 * self.w.nfields)
        coll = fs.collective_write(nranks)

        def rank_proc(r: int):
            for f in range(self.w.nfields):
                t0 = env.now
                yield env.timeout(self._compress_seconds(f, r))
                trace.add(r, "compress", t0, env.now, label=self.w.fields[f])
            # All-gather of actual sizes: a synchronization point.
            t0 = env.now
            yield barrier.arrive()
            yield env.timeout(allgather_t)
            trace.add(r, "allgather", t0, env.now)
            t0 = env.now
            total = float(self.actual[:, r].sum())
            yield coll.submit(total)
            trace.add(r, "write", t0, env.now, nbytes=int(total))

        for r in range(nranks):
            env.process(rank_proc(r))

    def _run_predictive(self) -> None:
        """Predicted-offset plan: predict → all-gather → overlapped
        compress/write → overflow repair."""
        env, fs, trace = self.env, self.fs, self.trace
        nranks, nfields = self.w.nranks, self.w.nfields
        strat = self.strategy
        # Every rank computes the same table; do it once here.
        table = strat.plan.compute_table(self.predicted, self.original, self.config, _BASE_OFFSET)
        reserved = table.reserved.copy()
        if not self.handle_overflow:
            reserved = np.maximum(reserved, self.actual)
        plan = strat.overflow.compute_plan(self.actual, reserved, table.data_end)
        self.offset_table = OffsetTable(
            offsets=table.offsets, reserved=reserved,
            data_end=table.data_end, base_offset=table.base_offset,
        )
        self.overflow_plan = plan
        barrier1 = SimBarrier(env, nranks)
        barrier2 = SimBarrier(env, nranks)
        ag1 = self.machine.comm.allgather_seconds(nranks, 8.0 * nfields)
        ag2 = self.machine.comm.allgather_seconds(nranks, 8.0 * nfields)
        primary_done = env.event()
        done_count = {"n": 0}
        orders = self._field_orders()

        def rank_proc(r: int):
            # Phase 1: prediction.
            t0 = env.now
            yield env.timeout(self._predict_seconds(r))
            trace.add(r, "predict", t0, env.now)
            # Phase 2: all-gather predicted sizes + offset computation.
            t0 = env.now
            yield barrier1.arrive()
            yield env.timeout(ag1 + PLAN_SECONDS_PER_FIELD_SQ * nfields * nfields)  # + Algorithm 1
            trace.add(r, "allgather", t0, env.now)
            # Phase 3: compress in (possibly optimized) order; the writes
            # are issued asynchronously and drain in order on this rank's
            # stream.
            prev_write = None
            pending = []
            for f in orders[r]:
                t0 = env.now
                yield env.timeout(self._compress_seconds(f, r))
                trace.add(r, "compress", t0, env.now, label=self.w.fields[f])
                nbytes = float(min(self.actual[f, r], reserved[f, r]))
                prev_write = env.process(self._chained_write(r, f, nbytes, prev_write))
                pending.append(prev_write)
            # Wait for this rank's writes to land.
            yield env.all_of(pending)
            # Phase 4: all-gather of overflow sizes.
            t0 = env.now
            yield barrier2.arrive()
            if done_count["n"] == 0:
                done_count["n"] = 1
                primary_done.succeed(env.now)
            yield env.timeout(ag2)
            trace.add(r, "allgather", t0, env.now)
            # Phase 5: write overflow tails (sequential per rank).
            for f in range(nfields):
                _, tail = plan.tail(f, r)
                if tail > 0:
                    t0 = env.now
                    yield fs.independent_write(float(tail))
                    trace.add(r, "overflow", t0, env.now, nbytes=tail)

        def _watch_primary():
            yield primary_done
            self.t_primary_done = env.now

        env.process(_watch_primary())
        for r in range(nranks):
            env.process(rank_proc(r))

    def _chained_write(self, rank: int, f: int, nbytes: float, prev):
        """A rank's async writes drain in issue order (one I/O stream)."""
        env, fs, trace = self.env, self.fs, self.trace
        if prev is not None:
            yield prev
        t0 = env.now
        yield fs.independent_write(nbytes)
        trace.add(rank, "write", t0, env.now, label=self.w.fields[f], nbytes=int(nbytes))

    # -- result assembly ---------------------------------------------------------

    def _result(self, makespan: float) -> SimResult:
        trace = self.trace
        strat = self.strategy
        if not strat.compresses:
            ideal = self.w.original_total
            footprint = self.w.original_total
            overflow_bytes = 0
            n_over = 0
        elif not strat.predictive:
            ideal = self.w.actual_total
            footprint = self.w.actual_total
            overflow_bytes = 0
            n_over = 0
        else:
            ideal = self.w.actual_total
            assert self.offset_table is not None and self.overflow_plan is not None
            footprint = (
                self.offset_table.data_end - self.offset_table.base_offset
            ) + self.overflow_plan.total_overflow
            overflow_bytes = self.overflow_plan.total_overflow
            n_over = self.overflow_plan.n_overflowing
        # Per-rank allgather totals overlap across ranks; report max-rank.
        overflow_seconds = (
            max(0.0, trace.kind_end("overflow") - self.t_primary_done)
            if trace.kind_end("overflow") > 0
            else 0.0
        )
        return SimResult(
            strategy=strat.name,
            nranks=self.w.nranks,
            nfields=self.w.nfields,
            makespan_seconds=makespan,
            predict_seconds=trace.max_rank_total("predict"),
            allgather_seconds=trace.max_rank_total("allgather"),
            compress_seconds=trace.max_rank_total("compress"),
            write_exposed_seconds=trace.exposed_write_seconds(),
            overflow_seconds=overflow_seconds,
            logical_nbytes=self.w.original_total,
            ideal_compressed_nbytes=ideal,
            file_footprint_nbytes=int(footprint),
            overflow_nbytes=int(overflow_bytes),
            n_overflow_partitions=int(n_over),
            trace=trace,
            offset_table=self.offset_table,
            overflow_plan=self.overflow_plan,
        )
