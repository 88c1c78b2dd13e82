"""Streaming time-step sessions: the paper's Fig. 15 scenario as an API.

Simulations dump one snapshot per time-step into the same run directory;
Fig. 15 shows the predictive scheme's overheads stay consistent across
steps because adjacent snapshots compress almost identically.  A
:class:`TimestepSession` turns that observation into a hot path: it keeps
one PHD5 file open across an entire
:class:`~repro.data.timesteps.TimestepSeries`, writes every step into its
own ``steps/NNNN`` group through the strategy engine's
:class:`~repro.core.pipeline.RealDriver`, and **warm-starts** each step's
predict and reorder phases from the previous step's *measured* sizes —
skipping the sampling-based ratio model and the Algorithm 1 search after
the first step, the two per-step planning costs that do not shrink with
data size.

The warm-started predictions feed the same
:class:`~repro.core.offsets.OffsetTable` extra-space math as cold
predictions, so the overflow safety net is unchanged: if a step drifts
more than the extra space absorbs, tails land in that step's overflow
region and the file still reads back exactly.

In ``strategy="auto"`` mode the session re-tunes the strategy itself every
step: an :class:`~repro.core.autotune.AutoTuner` prices every registered
strategy against the previous step's *measured* actual sizes and the next
step executes the winner — so a series drifting from a balanced regime
into, say, an incompressible or latency-dominated one switches write
strategies mid-stream without caller involvement.
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
from repro.core.strategy import WriteStrategy
from repro.data.partition import rank_payload, rank_regions
from repro.data.timesteps import TimestepSeries
from repro.errors import ConfigError, InvalidStateError
from repro.exec import Executor, resolve_executor
from repro.hdf5.file import File
from repro.hdf5.properties import FileAccessProps

#: The strategy an ``"auto"`` session starts from before it has measured
#: anything (the paper's full solution).
AUTO_INITIAL_STRATEGY = "reorder"


def step_group(step: int) -> str:
    """Canonical group path of one time-step (``steps/0007``)."""
    return f"steps/{step:04d}"


@dataclass
class StepResult:
    """Outcome of streaming one time-step into the session file."""

    step: int
    group: str
    warm_started: bool
    seconds: float
    stats: list[RankWriteStats] = field(repr=False)
    #: registered name of the strategy that executed this step.
    strategy: str = "reorder"
    #: in auto mode: the decision re-tuned from this step's measured
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
    """Persistent-file streaming writes over a :class:`TimestepSeries`.

    Parameters
    ----------
    path:
        The PHD5 file the whole series streams into (created on open).
    series:
        The time-evolving snapshot series to write, one group per step.
    nranks:
        Thread ranks per step (the SPMD width).
    strategy:
        Registered strategy name (or instance) executed per step, or
        ``"auto"`` to let an :class:`~repro.core.autotune.AutoTuner`
        re-pick the strategy every step from measured actuals.
    config:
        Pipeline configuration; ``warm_start_margin`` scales the reused
        sizes when the series drifts quickly.
    bound_scale:
        Multiplier on every field's generator error bound.
    field_names:
        Subset of fields to stream (default: all of the series').
    warm_start:
        Reuse step *t−1*'s actual sizes and field order at step *t*
        (predictive strategies only); ``False`` re-plans every step.
    executor:
        Fan-out backend (name, instance, or None → the config's
        ``executor``).  It schedules the per-step SPMD ranks, each rank's
        per-field compression, and — in auto mode — the tuner's
        per-strategy pricing.  The serial default is bit-identical to the
        historical behavior; parallel backends change wall-clock only.
        Pools resolved from a *name* belong to the session and are shut
        down by :meth:`close`; pass an :class:`~repro.exec.Executor`
        instance to share one pool across components under the caller's
        lifetime.
    file:
        Stream into an already-open writable :class:`~repro.hdf5.file.File`
        instead of creating one at ``path`` (the facade's shared engine
        handle).  The session never closes a caller-provided file, and
        close-time verification certifies it through the live handle.
    """

    def __init__(
        self,
        path: str | None,
        series: TimestepSeries,
        nranks: int = 4,
        *,
        strategy: str | WriteStrategy = "reorder",
        config: PipelineConfig | None = None,
        bound_scale: float = 1.0,
        field_names: list[str] | None = None,
        machine_name: str = "bebop",
        warm_start: bool = True,
        executor: "str | Executor | None" = None,
        file: File | None = None,
    ) -> None:
        if nranks <= 0:
            raise ConfigError("nranks must be positive")
        if path is None and file is None:
            raise ConfigError("either a path or an open file is required")
        self.series = series
        self.nranks = int(nranks)
        self.config = config or PipelineConfig()
        self.machine_name = machine_name
        spec = executor if executor is not None else self.config.executor
        self.executor = resolve_executor(spec)
        # A pool built here from a *name* is ours to shut down on close;
        # caller-passed instances keep caller-managed lifetimes.
        self._owns_executor = not isinstance(spec, Executor)
        self.auto = isinstance(strategy, str) and strategy == "auto"
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
        self.warm_start = warm_start
        self.field_names = list(field_names or series.field_names)
        unknown = set(self.field_names) - set(series.field_names)
        if unknown:
            raise ConfigError(f"unknown fields {sorted(unknown)}")
        self.codecs = {
            name: SZCompressor(bound=series.error_bound(name) * bound_scale, mode="abs")
            for name in self.field_names
        }
        if file is not None:
            # A caller-provided file (the facade's shared engine handle):
            # the session streams into it but never closes it — lifecycle
            # and close-time certification stay with the owner.
            file.require_writable()
            self.file = file
            self._owns_file = False
        else:
            fapl = FileAccessProps(async_io=True, async_workers=self.config.async_workers)
            self.file = File(path, "w", fapl=fapl)
            self._owns_file = True
        self.results: list[StepResult] = []
        #: close-time certification report (populated by ``close(verify=True)``
        #: or ``PipelineConfig(verify=True)``); None until then.
        self.verification = None
        self._next_step = 0
        # Warm-start state: per-field per-rank actual sizes and per-rank
        # field orders from the most recent *compressing* step.
        self._prev_actual: list[dict[str, int]] | None = None
        self._prev_orders: list[list[str]] | None = None

    # -- strategy resolution --------------------------------------------------

    @property
    def current_strategy(self) -> str:
        """Name of the strategy the next step will execute."""
        return self._current

    @property
    def driver(self) -> RealDriver:
        """The driver executing the current strategy (built on first use)."""
        name = self._current
        if name not in self._drivers:
            self._drivers[name] = RealDriver(
                name, config=self.config, machine_name=self.machine_name, executor=self.executor
            )
        return self._drivers[name]

    # -- lifecycle -----------------------------------------------------------

    def close(self, verify: bool | None = None) -> None:
        """Flush the footer, close the session file, and release any
        executor pool this session created from a config name
        (idempotent; caller-passed executor instances are left running).

        ``verify`` (default: the config's ``verify`` flag) certifies the
        file before handing it over: after the footer is flushed, the
        *closed* file is reopened from its path and every written step is
        read back through the serialized partition metadata — the same
        path a later reader takes — and asserted against the session's
        error bounds.  Reference data is regenerated deterministically
        from the series, so nothing extra is retained.  The resulting
        :class:`~repro.verify.certify.CertificationReport` is stored on
        :attr:`verification`; a breach raises
        :class:`~repro.errors.VerificationError` (the file is already
        closed cleanly, so the offending evidence remains readable).
        """
        do_verify = self.config.verify if verify is None else bool(verify)
        was_open = not self.file.storage.closed
        try:
            if self._owns_file:
                self.file.close()
        finally:
            if self._owns_executor:
                self.executor.close()
        if do_verify and was_open and self._next_step > 0:
            from repro.verify.certify import certify_session

            # Certify the *closed* file from its path: the read path then
            # exercises the serialized footer (partition tables, regions,
            # dtypes) exactly as a later reader will, not the still-live
            # in-memory metadata.  A caller-owned file is still open here,
            # so it is certified through its live handle instead.
            report = certify_session(
                self.file.path if self._owns_file else self.file,
                self.series,
                field_names=self.field_names,
                steps=range(self._next_step),
            )
            self.verification = report
            report.raise_on_failure()

    def __enter__(self) -> "TimestepSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # When the body raised, skip close-time verification: certifying a
        # partially written file would at best waste a full read-back and
        # at worst replace the caller's real exception with a
        # VerificationError about the half-finished state.
        self.close(verify=False if exc_type is not None else None)

    @property
    def steps_written(self) -> int:
        """Number of steps streamed so far."""
        return self._next_step

    # -- streaming -----------------------------------------------------------

    def write_step(self, step: int | None = None) -> StepResult:
        """Stream one snapshot of the series into its own group of the
        session file.

        Steps must be written in order (the warm-start state is a chain);
        ``step`` defaults to the next unwritten step.
        """
        if step is None:
            step = self._next_step
        if step != self._next_step:
            raise InvalidStateError(
                f"steps stream in order: expected {self._next_step}, got {step}"
            )
        if step >= len(self.series):
            raise InvalidStateError(f"series has only {len(self.series)} steps")
        gen = self.series.snapshot_generator(step)
        return self.write_arrays({n: gen.field(n) for n in self.field_names})

    def write_arrays(self, arrays: Mapping[str, np.ndarray]) -> StepResult:
        """Stream one snapshot — every field's full array, handed over by
        the caller — as the next step (the push-style write body;
        :meth:`write_step` pulls the arrays from the series and lands here).
        """
        step = self._next_step
        driver = self.driver
        names = self.field_names
        shape = self.series.shape
        # Raw (non-compressing) writes need row-slab regions; compressed
        # partitions are near-cubic grid blocks.  An auto session may
        # alternate between the two from step to step.
        regions = rank_regions(shape, self.nranks, slabs=not driver.strategy.compresses)
        payload = rank_payload({n: arrays[n] for n in names}, shape, regions)
        warm = (
            self.warm_start
            and driver.strategy.predictive
            and driver.strategy.predict.enabled
            and self._prev_actual is not None
        )
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
                warm_start=self.warm_start and self._prev_actual is not None,
            )
            self._current = tuning.choice
        self._next_step = step + 1
        result = StepResult(
            step=step,
            group=group,
            warm_started=warm,
            seconds=seconds,
            stats=stats,
            strategy=driver.strategy.name,
            tuning=tuning,
        )
        self.results.append(result)
        return result

    def write_all(self) -> list[StepResult]:
        """Stream every remaining step; returns the per-step results."""
        while self._next_step < len(self.series):
            self.write_step()
        return list(self.results)

    # -- read-back -----------------------------------------------------------

    def read_step(self, step: int, field_names: list[str] | None = None) -> dict[str, np.ndarray]:
        """Reassemble one written step's fields from the session file."""
        if not 0 <= step < self._next_step:
            raise InvalidStateError(f"step {step} not written yet")
        names = field_names or self.field_names
        return {n: self.file[f"{step_group(step)}/{n}"].read() for n in names}
