"""The simulator's interpreter of a strategy's phase program.

:func:`simulate_strategy` schedules the strategy's program
(:meth:`~repro.core.strategy.WriteStrategy.program`) on the discrete-event
simulator: cost-model compression times, simulated file-system writes,
and a barrier plus an all-gather between segments.  Which phases run, the
plan, Algorithm 1's order and the prediction and plan prices come from
:mod:`repro.core.strategy`, shared with the tuner and the real driver.

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
from repro.core.strategy import (
    gather_seconds,
    get_strategy,
    offline_plan,
    predict_seconds,
    rank_order,
)
from repro.core.workload import Workload
from repro.modeling.calibration import calibrate_write_throughput
from repro.modeling.throughput_model import PowerLawThroughputModel
from repro.modeling.write_model import StableWriteModel
from repro.sim.engine import Environment
from repro.sim.machine import MachineProfile, get_machine
from repro.sim.resources import SimBarrier
from repro.sim.trace import TraceRecorder


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
        return (self.file_footprint_nbytes - self.ideal_compressed_nbytes) / self.logical_nbytes

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

    ``models`` price Algorithm 1's task costs (default:
    :func:`default_models` at the workload's rank count).
    ``handle_overflow=False`` silently grows any under-reserved slot to fit
    (the "write time without handling data overflow" reference the paper's
    Fig. 14 performance overhead is measured against).
    """
    strat = get_strategy(strategy)
    models = models or default_models(machine, workload.nranks)
    run = _SimRun(strat, workload, machine, config or PipelineConfig(), models, handle_overflow)
    return run.execute()


def _rank_compression_seconds(cost_model, n_values, actual, outliers, unique) -> list[float]:
    """Cost-model compression seconds for one rank's field column.

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


class _SimRun:
    """One simulation run: the program's segments scheduled per rank."""

    def __init__(self, strategy, workload, machine, config, models, handle_overflow):
        w = self.w = workload
        self.strategy = strategy
        self.program = strategy.program()
        self.env = Environment()
        self.fs = machine.make_filesystem(self.env, nranks=w.nranks)
        self.trace = TraceRecorder()
        self.gathers = gather_seconds(self.program, machine, w.nranks, w.nfields)
        n_values = w.matrix("n_values")
        predicted = w.matrix("predicted_nbytes")
        self.original = w.matrix("original_nbytes")
        self.actual = w.matrix("actual_nbytes")
        self.compresses = any("compress" in segment for segment in self.program)
        # Cost-model seconds for every (rank, field) — the per-rank hot loop.
        # Raw strategies never read compression costs, so they skip it.
        if self.compresses:
            outliers, unique = w.matrix("n_outliers"), w.matrix("n_unique_symbols")
            self.compress_s = [
                _rank_compression_seconds(
                    machine.cost_model,
                    n_values[:, r],
                    self.actual[:, r],
                    outliers[:, r],
                    unique[:, r],
                )
                for r in range(w.nranks)
            ]
        self.orders = [
            rank_order(strategy, models, n_values[:, r], predicted[:, r])
            for r in range(w.nranks)
        ]
        # Every rank computes the same plan; do it once here.
        self.offset_table, self.overflow_plan = offline_plan(
            strategy, predicted, self.original, self.actual, config, grow_slots=not handle_overflow
        )
        self.t_primary_done = 0.0

    def execute(self) -> SimResult:
        env = self.env
        barriers = [SimBarrier(env, self.w.nranks) for _ in self.gathers]
        collective = self.fs.collective_write(self.w.nranks)
        for r in range(self.w.nranks):
            env.process(self._rank_proc(r, barriers, collective))
        return self._result(env.run())

    def _rank_proc(self, r: int, barriers, collective):
        env, fs, trace, w = self.env, self.fs, self.trace, self.w
        for i, segment in enumerate(self.program):
            if i:
                # The all-gather: a synchronization point.
                t0 = env.now
                yield barriers[i - 1].arrive()
                if "overflow" in segment:
                    self.t_primary_done = env.now
                yield env.timeout(self.gathers[i - 1])
                trace.add(r, "allgather", t0, env.now)
            if "predict" in segment:
                t0 = env.now
                yield env.timeout(predict_seconds(sum(self.compress_s[r])))
                trace.add(r, "predict", t0, env.now)
            if "compress" in segment:
                # Compress in the rank's order; in an overlapped segment each
                # write is issued asynchronously and drains in order on this
                # rank's stream.
                prev_write = None
                pending = []
                for f in self.orders[r]:
                    t0 = env.now
                    yield env.timeout(self.compress_s[r][f])
                    trace.add(r, "compress", t0, env.now, label=w.fields[f])
                    if "write" in segment:
                        nbytes = float(min(self.actual[f, r], self.offset_table.reserved[f, r]))
                        prev_write = env.process(self._chained_write(r, f, nbytes, prev_write))
                        pending.append(prev_write)
                if "write" in segment:
                    yield env.all_of(pending)
            elif "write" in segment and i:
                # The collective write of exact sizes.
                t0 = env.now
                total = float(self.actual[:, r].sum())
                yield collective.submit(total)
                trace.add(r, "write", t0, env.now, nbytes=int(total))
            elif "write" in segment:
                # Independent raw writes, field by field.
                for f in range(w.nfields):
                    t0 = env.now
                    nbytes = int(self.original[f, r])
                    yield fs.independent_write(float(nbytes))
                    trace.add(r, "write", t0, env.now, label=w.fields[f], nbytes=nbytes)
            if "overflow" in segment:
                # Overflow tails, sequential per rank.
                for f in range(w.nfields):
                    _, tail = self.overflow_plan.tail(f, r)
                    if tail > 0:
                        t0 = env.now
                        yield fs.independent_write(float(tail))
                        trace.add(r, "overflow", t0, env.now, nbytes=tail)

    def _chained_write(self, rank: int, f: int, nbytes: float, prev):
        """A rank's async writes drain in issue order (one I/O stream)."""
        env, fs, trace = self.env, self.fs, self.trace
        if prev is not None:
            yield prev
        t0 = env.now
        yield fs.independent_write(nbytes)
        trace.add(rank, "write", t0, env.now, label=self.w.fields[f], nbytes=int(nbytes))

    def _result(self, makespan: float) -> SimResult:
        trace, w = self.trace, self.w
        ideal = w.actual_total if self.compresses else w.original_total
        footprint, overflow_bytes, n_over = ideal, 0, 0
        table, plan = self.offset_table, self.overflow_plan
        if table is not None:
            footprint = table.data_end - table.base_offset + plan.total_overflow
            overflow_bytes, n_over = plan.total_overflow, plan.n_overflowing
        # Per-rank allgather totals overlap across ranks; report max-rank.
        overflow_seconds = (
            max(0.0, trace.kind_end("overflow") - self.t_primary_done)
            if trace.kind_end("overflow") > 0
            else 0.0
        )
        return SimResult(
            strategy=self.strategy.name,
            nranks=w.nranks,
            nfields=w.nfields,
            makespan_seconds=makespan,
            predict_seconds=trace.max_rank_total("predict"),
            allgather_seconds=trace.max_rank_total("allgather"),
            compress_seconds=trace.max_rank_total("compress"),
            write_exposed_seconds=trace.exposed_write_seconds(),
            overflow_seconds=overflow_seconds,
            logical_nbytes=w.original_total,
            ideal_compressed_nbytes=ideal,
            file_footprint_nbytes=int(footprint),
            overflow_nbytes=int(overflow_bytes),
            n_overflow_partitions=int(n_over),
            trace=trace,
            offset_table=table,
            overflow_plan=plan,
        )
