"""The paper's four write strategies, as fixed compositions of phases.

The paper's predictive write scheme is a sequence of four phases — predict
sizes, all-gather/offset plan, ordered compression overlapped with async
writes, overflow repair — and every "solution" of Fig. 4 is a particular
configuration of those phases.  This module defines each phase once as a
unit sharing the pure :class:`~repro.core.offsets.OffsetTable` /
:class:`~repro.core.overflow.OverflowPlan` mathematics, and the four
solutions as frozen :class:`WriteStrategy` values in one closed table,
:data:`STRATEGIES`.  Every entry point takes a strategy *name* and looks
it up with :func:`get_strategy`, so no other phase combination can reach
a driver.

One strategy definition runs in *two worlds*:

* :class:`repro.core.writers.SimDriver` executes it on the discrete-event
  simulator (cost-model timing at scale);
* :class:`repro.core.pipeline.RealDriver` executes it on thread ranks
  against a real PHD5 shared file (functional correctness).

Because both drivers consume the same phase objects, sim-vs-real
consistency is directly testable: per-rank predicted/actual/overflow byte
counts must agree between the two executions of the same strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.core.scheduler import CompressionTask, optimize_order
from repro.errors import ConfigError, UnknownStrategyError
from repro.modeling.ratio_model import RatioQualityModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.compression.sz import SZCompressor


# ---------------------------------------------------------------------------
# Shared phase helpers
# ---------------------------------------------------------------------------
def field_index_map(names: Sequence[str]) -> dict[str, int]:
    """Precomputed name → field-index map for the hot phase loops.

    The compress/write and overflow phases resolve a field's row in the
    offset/overflow tables once per field per rank; an O(1) map replaces
    the repeated O(n) ``names.index(name)`` scans.
    """
    return {name: f for f, name in enumerate(names)}


def predict_phase_costs(
    tmodel,
    wmodel,
    n_values: Sequence[int],
    predicted_nbytes: Sequence[int],
) -> tuple[list[float], list[float]]:
    """Per-field predicted (compress, write) seconds from the Eq. 1/2 models.

    Shared by both drivers so Algorithm 1 sees identical task costs in the
    simulated and the real execution of one strategy.
    """
    # Zero-size partitions (empty rank shares) cost nothing to compress;
    # the bit-rate ratio is undefined there, so short-circuit instead.
    compress = [
        tmodel.predict_seconds(int(n), 8.0 * float(p) / float(n)) if n else 0.0
        for n, p in zip(n_values, predicted_nbytes)
    ]
    write = [wmodel.predict_seconds_for_bytes(float(p)) for p in predicted_nbytes]
    return compress, write


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PredictPhase:
    """Phase 1 — per-partition compressed-size prediction before compressing.

    The sim driver prices this phase with the cost model (a sampled
    fraction of the compression pass); the real driver runs the actual
    ratio-quality model — or, when warm-start hints are provided (the
    :meth:`~repro.api.file.File.append_step` streaming path), skips
    the sampling pass entirely and reuses the previous step's sizes.
    """

    enabled: bool = True

    def predict_sizes(
        self,
        fields: Mapping[str, np.ndarray],
        codecs: Mapping[str, "SZCompressor"],
        config: PipelineConfig,
        hints: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Predicted compressed bytes per field for one rank's partitions."""
        if not self.enabled:
            return {name: int(data.nbytes) for name, data in fields.items()}
        if hints is not None:
            missing = set(fields) - set(hints)
            if missing:
                raise ConfigError(f"warm-start hints missing fields: {sorted(missing)}")
            return {name: int(hints[name]) for name in fields}
        out: dict[str, int] = {}
        for name, data in fields.items():
            model = RatioQualityModel(
                codecs[name],
                fraction=config.sample_fraction,
                lossless_estimator=config.lossless_estimator,
            )
            out[name] = model.predict(data).predicted_nbytes
        return out


@dataclass(frozen=True)
class PlanPhase:
    """Phase 2 — the deterministic offset plan every rank computes alike.

    ``source`` selects *when* the plan happens: ``"predicted"`` plans
    before compression from predicted sizes (plus extra space), which is
    what unlocks independent overlapped writes; ``"actual"`` plans after
    compression from exact sizes (the filter baseline's synchronized
    layout, no extra space).
    """

    source: str = "predicted"
    extra_space: bool = True

    def __post_init__(self) -> None:
        if self.source not in ("predicted", "actual"):
            raise ConfigError(f"plan source must be predicted/actual, not {self.source!r}")

    def compute_table(
        self,
        sizes: np.ndarray,
        originals: np.ndarray,
        config: PipelineConfig,
        base_offset: int,
    ) -> OffsetTable:
        """Slot layout from all-gathered [nfields][nranks] size matrices."""
        if self.extra_space:
            return OffsetTable.compute(
                sizes,
                originals,
                config.extra_space_ratio,
                base_offset=base_offset,
                alignment=config.slot_alignment,
            )
        return OffsetTable.compute(
            sizes, originals, rspace=1.0, base_offset=base_offset, alignment=8
        )


@dataclass(frozen=True)
class CompressWritePhase:
    """Phase 3 — compression (optionally reordered) and the write mode.

    ``overlap=True`` issues each field's write asynchronously as soon as
    it is compressed (draining in order on the rank's single I/O stream);
    ``overlap=False`` is the synchronized/collective write of the
    baselines.  ``reorder=True`` applies Algorithm 1 to the field order.
    """

    compress: bool = True
    overlap: bool = True
    reorder: bool = False

    def field_order(
        self,
        fields: Sequence[str],
        predicted_compress_seconds: Sequence[float],
        predicted_write_seconds: Sequence[float],
    ) -> list[str]:
        """Algorithm 1 ordering (or the original order when disabled)."""
        if not self.reorder:
            return list(fields)
        tasks = [
            CompressionTask(
                field=name,
                predicted_compress_seconds=float(c),
                predicted_write_seconds=float(w),
            )
            for name, c, w in zip(fields, predicted_compress_seconds, predicted_write_seconds)
        ]
        return [t.field for t in optimize_order(tasks)]


@dataclass(frozen=True)
class OverflowPhase:
    """Phase 4 — the second all-gather and the end-of-file tail layout."""

    enabled: bool = True

    def compute_plan(
        self,
        actual_nbytes: np.ndarray,
        reserved_nbytes: np.ndarray,
        data_end: int,
    ) -> OverflowPlan:
        """Deterministic overflow-tail layout from all-gathered actuals."""
        return OverflowPlan.compute(actual_nbytes, reserved_nbytes, data_end)


# ---------------------------------------------------------------------------
# The four strategies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WriteStrategy:
    """One of the paper's four write solutions, as four phase values.

    The set is closed (:data:`STRATEGIES`), so the drivers rely on what the
    four share: a predictive strategy predicts, plans with extra space,
    overlaps its writes and repairs overflow; ``filter`` plans from exact
    sizes and cannot overflow; ``nocomp`` writes raw slabs in place.
    """

    name: str
    predict: PredictPhase
    plan: PlanPhase | None
    compress_write: CompressWritePhase
    overflow: OverflowPhase

    @property
    def compresses(self) -> bool:
        """True when the strategy runs the codec at all."""
        return self.compress_write.compress

    @property
    def predictive(self) -> bool:
        """True for predicted-offset (pre-compression plan) strategies."""
        return self.plan is not None and self.plan.source == "predicted"


#: The paper's Fig. 4 solutions in presentation order: (a) independent raw
#: writes; (b) H5Z-SZ — compress all, all-gather exact sizes, one
#: synchronized collective write; (c) predict → plan with extra space →
#: compress with overlapped async writes → overflow repair; (d) (c) plus
#: the Algorithm 1 compression order, the paper's full solution.
STRATEGIES: Mapping[str, WriteStrategy] = MappingProxyType(
    {
        "nocomp": WriteStrategy(
            "nocomp",
            PredictPhase(enabled=False),
            None,
            CompressWritePhase(compress=False, overlap=False),
            OverflowPhase(enabled=False),
        ),
        "filter": WriteStrategy(
            "filter",
            PredictPhase(enabled=False),
            PlanPhase(source="actual", extra_space=False),
            CompressWritePhase(compress=True, overlap=False),
            OverflowPhase(enabled=False),
        ),
        "overlap": WriteStrategy(
            "overlap",
            PredictPhase(enabled=True),
            PlanPhase(source="predicted", extra_space=True),
            CompressWritePhase(compress=True, overlap=True, reorder=False),
            OverflowPhase(enabled=True),
        ),
        "reorder": WriteStrategy(
            "reorder",
            PredictPhase(enabled=True),
            PlanPhase(source="predicted", extra_space=True),
            CompressWritePhase(compress=True, overlap=True, reorder=True),
            OverflowPhase(enabled=True),
        ),
    }
)


def get_strategy(name: str) -> WriteStrategy:
    """The strategy called ``name``; the one lookup every entry point uses."""
    try:
        return STRATEGIES[name]
    except (KeyError, TypeError):
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; registered strategies are {list(STRATEGIES)}"
        ) from None
