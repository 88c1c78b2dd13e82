"""What one streamed time-step of a facade file reports (Fig. 15).

Simulations dump one snapshot per time-step into the same run directory;
Fig. 15 shows the predictive scheme's overheads stay consistent across
steps because adjacent snapshots compress almost identically.  A facade
file (:func:`repro.open`) whose datasets declare ``maxshape=(None, *shape)``
streams every :meth:`~repro.api.file.File.append_step` into its own
:func:`step_group` through the same collective write as a flush, its
predict and reorder phases **warm-started** from the previous step's
*measured* sizes — skipping the sampling-based ratio model and the
Algorithm 1 search after the first step.  The warm predictions feed the
same extra-space math as cold ones, so a step that drifts past its extra
space overflows and still reads back exactly.

Under ``strategy="auto"`` a series starts from ``AUTO_INITIAL_STRATEGY``
and is re-tuned every step: an :class:`~repro.core.autotune.AutoTuner`
prices all four strategies against the step's measured sizes, and the
next step executes the winner.  Each step returns a :class:`StepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.autotune import TuningDecision
from repro.core.pipeline import RankWriteStats

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
