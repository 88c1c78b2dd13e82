"""Per-timestep write-strategy auto-tuning.

The paper's four strategies each win in a different regime (Fig. 10,
Fig. 16): reordering pays only in balanced workloads, a collective write
amortizes per-operation latency across many small fields, and compression
itself stops paying on incompressible data.  The strategy engine from
:mod:`repro.core.strategy` makes the caller pick one statically; this
module closes the loop.

:class:`AutoTuner` prices each of the four strategies' makespans *analytically*
— no discrete-event simulation — by summing the strategy's phase program
(:meth:`~repro.core.strategy.WriteStrategy.program`) in closed form: the
max over ranks of each segment, plus the all-gathers between segments.
The simulator schedules the same program; the decisions both read (the
offline plan, Algorithm 1's order, the prediction and plan prices) come
from :mod:`repro.core.strategy`.  The two clocks differ by design: the
simulator prices compression with the machine's cost model, the tuner
with the calibrated Eq. (1) fit, and writes with the file system's
steady-state rates (:func:`repro.core.writers.default_models` supplies
the Eq. (1)/(2) models Algorithm 1 orders with).

The tuner's choice matches an exhaustive evaluate-every-strategy
simulation on the generated scenario matrix (the acceptance tests assert
≥ 90% agreement) at a tiny fraction of the cost — cheap enough to re-tune
every time-step from measured actuals, which is what
:meth:`File.append_step <repro.api.file.File.append_step>` does in
``strategy="auto"`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.scheduler import CompressionTask, queue_time
from repro.core.strategy import (
    STRATEGIES,
    PredictPhase,
    gather_seconds,
    get_strategy,
    offline_plan,
    predict_seconds,
    rank_order,
)
from repro.core.workload import Workload, workload_from_matrices
from repro.core.writers import default_models, simulate_strategy
from repro.errors import ConfigError
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
        Pipeline configuration (the extra-space ratio) shared with the
        drivers that will execute the choice.
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
        return _WorkloadContext(workload, self).estimate(strat, warm_start)

    def evaluate(self, workload: Workload, warm_start: bool = False) -> TuningDecision:
        """Estimate all four strategies and pick the fastest (ties keep the
        earlier strategy in presentation order)."""
        names = tuple(STRATEGIES)
        # The models, file-system constants, and compress-time matrix
        # depend only on the workload — share them across candidates.
        ctx = _WorkloadContext(workload, self)
        estimates = tuple(ctx.estimate(STRATEGIES[name], warm_start) for name in names)
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
    """Per-(workload, tuner) state shared by every candidate's estimate,
    and the closed-form sum of one candidate's program over it."""

    def __init__(self, workload: Workload, tuner: AutoTuner):
        self.w = workload
        self.config = tuner.config
        self.machine = tuner.machine
        self.models = tuner.models or default_models(tuner.machine, workload.nranks)
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
            _rank_eq1_seconds(self.models[0], self.n_values[:, r], self.actual[:, r])
            for r in range(workload.nranks)
        ]
        self.compress = np.asarray(per_rank, dtype=float).T
        self.compress_max = float(max(self.compress.sum(axis=0)))

    def _write_seconds(self, nbytes: float) -> float:
        """One independent write: per-op latency plus rate-capped drain."""
        return self.latency + float(nbytes) / self.ind_rate

    def _queue_seconds(self, strat, stored: np.ndarray, r: int) -> float:
        """One rank's overlapped compress/write queue through the TIME model."""
        order = rank_order(strat, self.models, self.n_values[:, r], self.predicted[:, r])
        tasks = [
            CompressionTask(
                field=str(f),
                predicted_compress_seconds=float(self.compress[f, r]),
                predicted_write_seconds=self._write_seconds(stored[f, r]),
            )
            for f in order
        ]
        return queue_time(tasks)

    def estimate(self, strat, warm_start: bool) -> StrategyEstimate:
        """The program's makespan: each segment's slowest rank, plus the
        all-gathers between segments."""
        w = self.w
        program = strat.program(warm_start)
        gathers = gather_seconds(program, self.machine, w.nranks, w.nfields)
        table, plan = offline_plan(strat, self.predicted, self.original, self.actual, self.config)
        seconds = dict.fromkeys(("predict", "compress", "write", "overflow"), 0.0)
        makespan = 0.0
        for i, segment in enumerate(program):
            if i:
                makespan += gathers[i - 1]
            if "predict" in segment:
                seconds["predict"] = predict_seconds(self.compress_max)
                makespan += seconds["predict"]
            if {"compress", "write"} <= segment:
                stored = np.minimum(self.actual, table.reserved)
                per_rank = [self._queue_seconds(strat, stored, r) for r in range(w.nranks)]
                primary_max = float(max(per_rank))
                seconds["compress"] = self.compress_max
                seconds["write"] = max(0.0, primary_max - self.compress_max)
                makespan += primary_max
            elif "compress" in segment:
                seconds["compress"] = self.compress_max
                makespan += self.compress_max
            elif "write" in segment and i:
                # The collective write of exact sizes.
                seconds["write"] = (
                    self.collective_overhead
                    + self.latency
                    + float(self.actual.sum()) / self.collective_rate
                )
                makespan += seconds["write"]
            elif "write" in segment:
                # Independent raw writes.
                seconds["write"] = max(
                    sum(self._write_seconds(self.original[f, r]) for f in range(w.nfields))
                    for r in range(w.nranks)
                )
                makespan += seconds["write"]
            if "overflow" in segment:
                seconds["overflow"] = max(
                    sum(
                        self._write_seconds(plan.tail_nbytes[f, r])
                        for f in range(w.nfields)
                        if plan.tail_nbytes[f, r] > 0
                    )
                    for r in range(w.nranks)
                )
                makespan += seconds["overflow"]
        return StrategyEstimate(
            strategy=strat.name,
            makespan_seconds=makespan,
            predict_seconds=seconds["predict"],
            allgather_seconds=sum(gathers, 0.0),
            compress_seconds=seconds["compress"],
            write_seconds=seconds["write"],
            overflow_seconds=seconds["overflow"],
            overflow_nbytes=int(plan.total_overflow) if plan is not None else 0,
        )


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
