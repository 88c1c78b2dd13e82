"""Per-timestep write-strategy auto-tuning.

The paper's four strategies each win in a different regime (Fig. 10,
Fig. 16): reordering pays only in balanced workloads, a collective write
amortizes per-operation latency across many small fields, and compression
itself stops paying on incompressible data.  The strategy engine from
:mod:`repro.core.strategy` makes the caller pick one statically; this
module closes the loop.

:class:`AutoTuner` prices each of the four strategies' makespans *analytically*
— no discrete-event simulation — from the same ingredients both drivers
already use:

* the calibrated Eq. (1) compression-throughput model and Eq. (2) write
  model (:func:`repro.core.writers.default_models`);
* the machine profile's file-system and interconnect constants;
* the **same phase objects**: ``PlanPhase.compute_table`` for reserved
  slots, ``OverflowPhase.compute_plan`` for the repair traffic,
  ``CompressWritePhase.field_order`` for Algorithm 1 ordering, and
  :func:`repro.core.scheduler.queue_time` for the overlapped
  compress/write completion time.

Because the estimate mirrors :class:`~repro.core.writers.SimDriver`'s
timing semantics term by term, the tuner's choice matches an exhaustive
evaluate-every-strategy simulation on the generated scenario matrix (the
acceptance tests assert ≥ 90% agreement) at a tiny fraction of the cost —
cheap enough to re-tune every time-step from measured actuals, which is
what :meth:`File.append_step <repro.api.file.File.append_step>` does in
``strategy="auto"`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.scheduler import CompressionTask, queue_time
from repro.core.strategy import STRATEGIES, PredictPhase, get_strategy, predict_phase_costs
from repro.core.workload import Workload, workload_from_matrices
from repro.core.writers import (
    _BASE_OFFSET,
    PLAN_SECONDS_PER_FIELD_SQ,
    PREDICT_OVERHEAD_FACTOR,
    default_models,
    simulate_strategy,
)
from repro.errors import ConfigError
from repro.modeling.sampling import DEFAULT_FRACTION
from repro.sim.engine import Environment
from repro.sim.machine import MachineProfile, get_machine


@dataclass(frozen=True)
class StrategyEstimate:
    """Predicted cost of one strategy on one workload."""

    strategy: str
    #: end-to-end predicted makespan.
    makespan_seconds: float
    predict_seconds: float = 0.0
    allgather_seconds: float = 0.0
    compress_seconds: float = 0.0
    write_seconds: float = 0.0
    overflow_seconds: float = 0.0
    overflow_nbytes: int = 0


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of evaluating all four strategies on one workload."""

    workload_name: str
    estimates: tuple[StrategyEstimate, ...] = field(repr=False)
    #: name of the winning strategy.
    choice: str = ""

    def estimate_for(self, strategy: str) -> StrategyEstimate:
        """The estimate of one candidate by name."""
        try:
            return next(e for e in self.estimates if e.strategy == strategy)
        except StopIteration:
            raise ConfigError(f"no estimate for strategy {strategy!r}") from None

    def ranking(self) -> list[StrategyEstimate]:
        """Estimates sorted fastest-first."""
        return sorted(self.estimates, key=lambda e: e.makespan_seconds)


def _first_minimum(names: Sequence[str], makespans: Sequence[float]) -> str:
    """Argmin with the shared tie rule: first strictly-better candidate in
    presentation order wins (ties keep the earlier strategy)."""
    best_i = 0
    for i in range(1, len(names)):
        if makespans[i] < makespans[best_i]:
            best_i = i
    return names[best_i]


class AutoTuner:
    """Analytic per-workload strategy selection.

    Parameters
    ----------
    machine:
        Machine profile (or name) whose calibrated models and file-system
        constants price the phases.
    config:
        Pipeline configuration (extra space, sampling fraction) shared
        with the drivers that will execute the choice.
    models:
        Explicit ``(throughput_model, write_model)`` pair; defaults to the
        offline-calibrated :func:`~repro.core.writers.default_models` at
        each workload's rank count — exactly what the drivers use.
    """

    def __init__(
        self,
        machine: str | MachineProfile = "bebop",
        config: PipelineConfig | None = None,
        models=None,
    ) -> None:
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        self.config = config or PipelineConfig()
        self.models = models

    # -- estimation ----------------------------------------------------------

    def estimate(
        self,
        strategy: str,
        workload: Workload,
        warm_start: bool = False,
    ) -> StrategyEstimate:
        """Predicted makespan of one strategy over one workload.

        ``warm_start=True`` zeroes the sampling-prediction overhead, the
        streamed-step hot path where the previous step's measured
        sizes replace the sampling pass.
        """
        strat = get_strategy(strategy)
        return _Estimator(strat, _WorkloadContext(workload, self), warm_start).estimate()

    def evaluate(self, workload: Workload, warm_start: bool = False) -> TuningDecision:
        """Estimate all four strategies and pick the fastest (ties keep the
        earlier strategy in presentation order)."""
        names = tuple(STRATEGIES)
        # The models, file-system constants, and compress-time matrix
        # depend only on the workload — share them across candidates.
        ctx = _WorkloadContext(workload, self)
        estimates = tuple(
            _Estimator(STRATEGIES[name], ctx, warm_start).estimate() for name in names
        )
        choice = _first_minimum(names, [e.makespan_seconds for e in estimates])
        return TuningDecision(workload_name=workload.name, estimates=estimates, choice=choice)

    def choose(self, workload: Workload, warm_start: bool = False) -> str:
        """Name of the winning strategy for this workload."""
        return self.evaluate(workload, warm_start).choice


def _rank_eq1_seconds(tmodel, n_values, actual) -> list[float]:
    """Eq. (1) seconds for one rank's column."""
    return [
        tmodel.predict_seconds(int(n), 8.0 * float(a) / float(n))
        for n, a in zip(n_values, actual)
    ]


class _WorkloadContext:
    """Per-(workload, tuner) state shared by every candidate's estimate."""

    def __init__(self, workload: Workload, tuner: AutoTuner):
        self.w = workload
        self.config = tuner.config
        self.machine = tuner.machine
        self.tmodel, self.wmodel = tuner.models or default_models(
            tuner.machine, workload.nranks
        )
        # File-system constants at this job size (same sub-linear OST
        # scaling the simulator applies).
        fs = tuner.machine.make_filesystem(Environment(), nranks=workload.nranks)
        self.latency = fs.write_latency
        self.collective_rate = fs.aggregate_bw * fs.collective_efficiency
        self.collective_overhead = fs.collective_overhead
        # Steady-state independent-write rate: per-process cap, or the
        # max-min fair share when every rank writes at once.
        self.ind_rate = min(fs.per_proc_bw, fs.aggregate_bw / workload.nranks)
        self.n_values = workload.matrix("n_values")
        self.original = workload.matrix("original_nbytes")
        self.actual = workload.matrix("actual_nbytes")
        self.predicted = workload.matrix("predicted_nbytes")
        # Eq. (1) compression seconds at each partition's actual bit-rate —
        # the tuner's per-rank hot loop.
        per_rank = [
            _rank_eq1_seconds(self.tmodel, self.n_values[:, r], self.actual[:, r])
            for r in range(workload.nranks)
        ]
        self.compress = np.asarray(per_rank, dtype=float).T


class _Estimator:
    """One analytic evaluation of one strategy — the closed-form mirror
    of :class:`repro.core.writers._SimRun`."""

    def __init__(self, strat, ctx: _WorkloadContext, warm_start: bool):
        self.strat = strat
        self.warm_start = warm_start
        self.ctx = ctx
        self.w = ctx.w
        self.config = ctx.config
        self.machine = ctx.machine
        self.tmodel, self.wmodel = ctx.tmodel, ctx.wmodel
        self.latency = ctx.latency
        self.collective_rate = ctx.collective_rate
        self.collective_overhead = ctx.collective_overhead
        self.ind_rate = ctx.ind_rate
        self.n_values = ctx.n_values
        self.original = ctx.original
        self.actual = ctx.actual
        self.predicted = ctx.predicted
        self.compress = ctx.compress

    def _write_seconds(self, nbytes: float) -> float:
        """One independent write: per-op latency plus rate-capped drain."""
        return self.latency + float(nbytes) / self.ind_rate

    def _allgather(self) -> float:
        return self.machine.comm.allgather_seconds(self.w.nranks, 8.0 * self.w.nfields)

    def estimate(self) -> StrategyEstimate:
        strat = self.strat
        if not strat.compresses:
            return self._estimate_raw()
        if not strat.predictive:
            return self._estimate_postplanned()
        return self._estimate_predictive()

    # -- execution shapes (mirroring _SimRun) --------------------------------

    def _estimate_raw(self) -> StrategyEstimate:
        per_rank = [
            sum(self._write_seconds(self.original[f, r]) for f in range(self.w.nfields))
            for r in range(self.w.nranks)
        ]
        makespan = max(per_rank)
        return StrategyEstimate(
            strategy=self.strat.name,
            makespan_seconds=makespan,
            write_seconds=makespan,
        )

    def _estimate_postplanned(self) -> StrategyEstimate:
        compress_max = float(max(self.compress.sum(axis=0)))
        ag = self._allgather()
        drain = (
            self.collective_overhead
            + self.latency
            + float(self.actual.sum()) / self.collective_rate
        )
        return StrategyEstimate(
            strategy=self.strat.name,
            makespan_seconds=compress_max + ag + drain,
            allgather_seconds=ag,
            compress_seconds=compress_max,
            write_seconds=drain,
        )

    def _estimate_predictive(self) -> StrategyEstimate:
        strat, w = self.strat, self.w
        table = strat.plan.compute_table(self.predicted, self.original, self.config, _BASE_OFFSET)
        reserved = table.reserved
        plan = strat.overflow.compute_plan(self.actual, reserved, table.data_end)
        stored = np.minimum(self.actual, reserved)
        # Phase 1: sampling prediction (skipped on warm-started steps).
        if not self.warm_start:
            predict_max = float(
                max(self.compress.sum(axis=0))
                * DEFAULT_FRACTION
                * PREDICT_OVERHEAD_FACTOR
            )
        else:
            predict_max = 0.0
        # Phase 2: all-gather + every rank's offset/Algorithm-1 computation.
        ag1 = self._allgather() + PLAN_SECONDS_PER_FIELD_SQ * w.nfields * w.nfields
        # Phase 3: per-rank compress/write queues through the TIME model.
        per_rank = []
        for r in range(w.nranks):
            tasks = [
                CompressionTask(
                    field=str(f),
                    predicted_compress_seconds=float(self.compress[f, r]),
                    predicted_write_seconds=self._write_seconds(stored[f, r]),
                )
                for f in self._field_order(r)
            ]
            per_rank.append(queue_time(tasks))
        primary_max = float(max(per_rank))
        compress_max = float(max(self.compress.sum(axis=0)))
        # Phase 4/5: second all-gather + per-rank overflow tails.
        ag2 = self._allgather()
        overflow_max = max(
            sum(
                self._write_seconds(plan.tail_nbytes[f, r])
                for f in range(w.nfields)
                if plan.tail_nbytes[f, r] > 0
            )
            for r in range(w.nranks)
        )
        makespan = predict_max + ag1 + primary_max + ag2 + overflow_max
        return StrategyEstimate(
            strategy=strat.name,
            makespan_seconds=makespan,
            predict_seconds=predict_max,
            allgather_seconds=ag1 + ag2,
            compress_seconds=compress_max,
            write_seconds=max(0.0, primary_max - compress_max),
            overflow_seconds=overflow_max,
            overflow_nbytes=int(plan.total_overflow),
        )

    def _field_order(self, r: int) -> list[int]:
        """Algorithm 1 ordering exactly as both drivers compute it."""
        cw = self.strat.compress_write
        if not cw.reorder:
            return list(range(self.w.nfields))
        compress_s, write_s = predict_phase_costs(
            self.tmodel, self.wmodel, self.n_values[:, r], self.predicted[:, r]
        )
        names = [str(f) for f in range(self.w.nfields)]
        return [int(n) for n in cw.field_order(names, compress_s, write_s)]


# ---------------------------------------------------------------------------
# Helpers shared by the facade's flush and steps and the acceptance tests
# ---------------------------------------------------------------------------

def measured_workload(
    field_names: Sequence[str],
    per_rank_actual: Sequence[Mapping[str, int]],
    per_rank_n_values: Sequence[int],
    name: str = "measured",
    bytes_per_value: int = 4,
) -> Workload:
    """A :class:`Workload` snapshot from one step's *measured* actuals.

    This is what ``strategy="auto"`` series re-tune from: the previous
    step's per-rank actual compressed sizes become both the actuals and
    the predictions of the next step's estimate — the Fig. 15 consistency
    assumption as data.
    """
    if len(per_rank_actual) != len(per_rank_n_values):
        raise ConfigError("one n_values entry per rank required")
    nf, nr = len(field_names), len(per_rank_actual)
    n_values = np.empty((nf, nr), dtype=np.int64)
    actual = np.empty((nf, nr), dtype=np.int64)
    for r, (sizes, n) in enumerate(zip(per_rank_actual, per_rank_n_values)):
        for f, fname in enumerate(field_names):
            n_values[f, r] = int(n)
            actual[f, r] = max(1, int(sizes[fname]))
    return workload_from_matrices(
        name=name,
        fields=list(field_names),
        n_values=n_values,
        original_nbytes=n_values * int(bytes_per_value),
        actual_nbytes=actual,
        predicted_nbytes=actual.copy(),
    )


def tune_payload(
    tuner: AutoTuner,
    field_names: Sequence[str],
    payload: Sequence[tuple[Mapping[str, np.ndarray], object]],
    codecs: Mapping,
    sizes: Sequence[Mapping[str, int]] | None = None,
    *,
    name: str = "measured",
    warm_start: bool = False,
) -> TuningDecision:
    """Price every candidate for one collective write's per-rank payload.

    ``sizes`` are the per-rank compressed sizes a compressing run just
    measured; without them (a cold snapshot write, or a raw step that
    measured nothing) the sampling predict phase probes them, so the tuner
    keeps observing compressibility either way.  Sizes become a
    :func:`measured_workload` and the tuner evaluates it — the one
    probe → workload → evaluate sequence behind the facade's
    ``strategy="auto"`` flush and its per-step re-tuning.
    """
    if sizes is None:
        probe = PredictPhase(enabled=True)
        sizes = [probe.predict_sizes(local, codecs, tuner.config) for local, _ in payload]
    n_values = [int(next(iter(local.values())).size) for local, _ in payload]
    workload = measured_workload(field_names, sizes, n_values, name=name)
    return tuner.evaluate(workload, warm_start=warm_start)


def exhaustive_oracle(
    workload: Workload,
    machine: str | MachineProfile = "bebop",
    config: PipelineConfig | None = None,
) -> str:
    """Evaluate-all-strategies oracle: simulate all four and pick the
    smallest makespan, with the same tie rule as the tuner."""
    machine = get_machine(machine) if isinstance(machine, str) else machine
    names = tuple(STRATEGIES)
    return _first_minimum(names, [_simulated(n, workload, machine, config) for n in names])


def _simulated(name, workload, machine, config) -> float:
    """Simulated makespan of one strategy."""
    return simulate_strategy(name, workload, machine, config).makespan_seconds


def choice_regret(
    choice: str,
    workload: Workload,
    machine: str | MachineProfile = "bebop",
    config: PipelineConfig | None = None,
) -> float:
    """Relative makespan excess of ``choice`` over the simulated optimum.

    0.0 means the choice *is* the oracle's; a small value means a
    near-tie (the regimes where two strategies are separated by less than
    the model's fidelity).  The acceptance tests count a choice as
    matching the oracle when it is identical **or** its regret is within
    1% — an exhaustive evaluator could not do meaningfully better.
    """
    machine = get_machine(machine) if isinstance(machine, str) else machine
    get_strategy(choice)  # refuse an unknown name before simulating
    makespans = {n: _simulated(n, workload, machine, config) for n in STRATEGIES}
    best = min(makespans.values())
    return makespans[choice] / best - 1.0
