"""Per-step write state of a facade file's time-axis datasets (Fig. 15).

Simulations dump one snapshot per time-step into the same run directory;
Fig. 15 shows the predictive scheme's overheads stay consistent across
steps because adjacent snapshots compress almost identically.  A facade
file (:func:`repro.open`) whose datasets declare ``maxshape=(None, *shape)``
streams every :meth:`~repro.api.file.File.append_step` into its own
``steps/NNNN`` group, and :class:`TimestepSession` is the state that file
keeps between steps: each step is one
:meth:`RealDriver.write <repro.core.pipeline.RealDriver.write>`, and its
predict and reorder phases are **warm-started** from the previous step's
*measured* sizes — skipping the sampling-based ratio model and the
Algorithm 1 search after the first step, the two per-step planning costs
that do not shrink with data size.

The warm-started predictions feed the same
:class:`~repro.core.offsets.OffsetTable` extra-space math as cold
predictions, so the overflow safety net is unchanged: if a step drifts
more than the extra space absorbs, tails land in that step's overflow
region and the file still reads back exactly.

Under ``strategy="auto"`` the strategy is re-tuned every step: an
:class:`~repro.core.autotune.AutoTuner` prices all four strategies
against the previous step's *measured* actual sizes and the next step
executes the winner — so a series drifting from a balanced regime into,
say, an incompressible or latency-dominated one switches write strategies
mid-stream without caller involvement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compression.sz import SZCompressor
from repro.core.autotune import AutoTuner, TuningDecision, tune_payload
from repro.core.config import PipelineConfig
from repro.core.pipeline import RankWriteStats, RealDriver
from repro.data.partition import rank_payload, rank_regions
from repro.exec import Executor
from repro.hdf5.file import File

#: The strategy an ``"auto"`` series starts from before it has measured
#: anything (the paper's full solution).
AUTO_INITIAL_STRATEGY = "reorder"


def step_group(step: int) -> str:
    """Canonical group path of one time-step (``steps/0007``)."""
    return f"steps/{step:04d}"


@dataclass
class StepResult:
    """Outcome of streaming one time-step into the file."""

    step: int
    group: str
    warm_started: bool
    seconds: float
    stats: list[RankWriteStats] = field(repr=False)
    #: name of the strategy that executed this step.
    strategy: str = "reorder"
    #: under ``"auto"``: the decision re-tuned from this step's measured
    #: actuals (it governs the *next* step); None otherwise.
    tuning: TuningDecision | None = field(default=None, repr=False)

    @property
    def predicted_nbytes(self) -> int:
        """Predicted compressed bytes across all ranks and fields."""
        return sum(sum(s.predicted_nbytes.values()) for s in self.stats)

    @property
    def actual_nbytes(self) -> int:
        """Actual compressed bytes across all ranks and fields."""
        return sum(s.total_actual for s in self.stats)

    @property
    def overflow_nbytes(self) -> int:
        """Overflow-tail bytes across all ranks and fields."""
        return sum(s.total_overflow for s in self.stats)

    @property
    def prediction_error(self) -> float:
        """Signed relative size-prediction error for the whole step."""
        return (self.predicted_nbytes - self.actual_nbytes) / self.actual_nbytes


class TimestepSession:
    """What a facade file carries from one time-step to the next.

    Parameters
    ----------
    file:
        The open writable engine file every step lands in (the facade's).
    shape:
        Grid shape of every field of every step.
    codecs:
        One codec per time-axis field, in field order.
    nranks:
        Thread ranks per step (the SPMD width).
    strategy:
        Strategy name executed per step, or
        ``"auto"`` to re-pick the strategy every step from measured actuals.
    config:
        Pipeline configuration; ``warm_start_margin`` scales the reused
        sizes when the series drifts quickly.
    machine_name:
        Calibrated machine profile for ordering and tuning models.
    executor:
        The file's fan-out backend: it schedules the per-step SPMD ranks,
        each rank's per-field compression and, under ``"auto"``, the
        tuner's per-strategy pricing.  Its lifetime is the file's.
    """

    def __init__(
        self,
        file: File,
        shape: tuple[int, ...],
        codecs: Mapping[str, SZCompressor],
        nranks: int,
        *,
        strategy: str,
        config: PipelineConfig,
        machine_name: str,
        executor: Executor,
    ) -> None:
        self.file = file
        self.shape = tuple(shape)
        self.codecs = dict(codecs)
        self.field_names = list(self.codecs)
        self.nranks = int(nranks)
        self.config = config
        self.machine_name = machine_name
        self.executor = executor
        self.auto = strategy == "auto"
        self._drivers: dict[str, RealDriver] = {}
        if self.auto:
            self.tuner: AutoTuner | None = AutoTuner(
                machine=machine_name, config=self.config, executor=self.executor
            )
            self._current = AUTO_INITIAL_STRATEGY
        else:
            self.tuner = None
            driver = RealDriver(
                strategy, config=self.config, machine_name=machine_name, executor=self.executor
            )
            self._drivers[driver.strategy.name] = driver
            self._current = driver.strategy.name
        self._next_step = 0
        # Warm-start state: per-field per-rank actual sizes and per-rank
        # field orders from the most recent *compressing* step.
        self._prev_actual: list[dict[str, int]] | None = None
        self._prev_orders: list[list[str]] | None = None

    @property
    def driver(self) -> RealDriver:
        """The driver executing the current strategy (built on first use)."""
        name = self._current
        if name not in self._drivers:
            self._drivers[name] = RealDriver(
                name, config=self.config, machine_name=self.machine_name, executor=self.executor
            )
        return self._drivers[name]

    def write_arrays(self, arrays: Mapping[str, np.ndarray]) -> StepResult:
        """Stream one snapshot — every field's full array — as the next step."""
        step = self._next_step
        driver = self.driver
        names = self.field_names
        shape = self.shape
        # Raw (non-compressing) writes need row-slab regions; compressed
        # partitions are near-cubic grid blocks.  An auto session may
        # alternate between the two from step to step.
        regions = rank_regions(shape, self.nranks, slabs=not driver.strategy.compresses)
        payload = rank_payload({n: arrays[n] for n in names}, shape, regions)
        warm = driver.strategy.predictive and self._prev_actual is not None
        hints = None
        if warm:
            margin = self.config.warm_start_margin
            orders = self._prev_orders or [None] * len(self._prev_actual)
            hints = [
                ({n: max(1, int(round(prev[n] * margin))) for n in names}, order)
                for prev, order in zip(self._prev_actual, orders)
            ]
        group = step_group(step)

        t0 = time.perf_counter()
        stats = driver.write(self.file, payload, shape, self.codecs, group=group, hints=hints)
        seconds = time.perf_counter() - t0
        if driver.strategy.compresses:
            # Raw-write actuals are partition sizes, useless as compressed-
            # size hints — only compressing steps refresh the warm state.
            self._prev_actual = [dict(s.actual_nbytes) for s in stats]
            # Only an Algorithm-1 step produces an optimized order worth
            # reusing; seeding a later reorder step with another strategy's
            # insertion order would silently disable the optimization.
            self._prev_orders = (
                [list(s.order) for s in stats] if driver.strategy.compress_write.reorder else None
            )
        tuning = None
        if self.auto:
            # Re-pick the next step's strategy from this step's measured
            # actuals; a raw step measured no compressed sizes, so they are
            # probed instead — otherwise a session that once picked a raw
            # strategy could never notice the series drifting back into a
            # compressible regime.  The next step warm-starts (skips the
            # sampling pass) whenever compressed hints exist, so predictive
            # candidates are priced without the prediction overhead then.
            tuning = tune_payload(
                self.tuner,
                names,
                payload,
                self.codecs,
                [s.actual_nbytes for s in stats] if driver.strategy.compresses else None,
                margin=self.config.warm_start_margin,
                name=f"step{step}",
                warm_start=self._prev_actual is not None,
            )
            self._current = tuning.choice
        self._next_step = step + 1
        return StepResult(
            step=step,
            group=group,
            warm_started=warm,
            seconds=seconds,
            stats=stats,
            strategy=driver.strategy.name,
            tuning=tuning,
        )
