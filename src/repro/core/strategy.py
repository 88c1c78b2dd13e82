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

Each strategy is also one *phase program* (:meth:`WriteStrategy.program`):
segments of phase kinds, one all-gather between each segment and the next.
Three interpreters read it:

* :func:`repro.core.writers.simulate_strategy` schedules it on the
  discrete-event simulator, pricing compression with the machine's cost
  model (timing at scale);
* :class:`repro.core.autotune.AutoTuner` sums it in closed form, pricing
  compression with the Eq. (1) fit;
* :class:`repro.core.pipeline.RealDriver` runs it on thread ranks against
  a real PHD5 shared file, and ``tests/test_strategy_engine.py`` holds its
  phases to the program.

The decisions all three share are made here once: Algorithm 1's order
(:func:`rank_order`), the prediction and plan prices
(:func:`predict_seconds`, :func:`gather_seconds`) and the offline plan
(:func:`offline_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.core.scheduler import CompressionTask, optimize_order
from repro.errors import ConfigError, UnknownStrategyError
from repro.modeling.ratio_model import RatioQualityModel
from repro.modeling.sampling import DEFAULT_FRACTION

if TYPE_CHECKING:  # pragma: no cover
    from repro.compression.sz import SZCompressor
    from repro.sim.machine import MachineProfile

#: Data region base of a fresh shared file: past the container header, aligned.
BASE_OFFSET = 4096

#: Prediction overhead relative to the sampled compression fraction
#: (paper: the sampling pass costs slightly more than the fraction alone).
PREDICT_OVERHEAD_FACTOR = 1.2

#: Seconds per nfields² modeling the offset/Algorithm-1 computation every
#: rank performs after the first all-gather.
PLAN_SECONDS_PER_FIELD_SQ = 1e-7


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
    """Per-field predicted (compress, write) seconds from the Eq. 1/2 models:
    the task costs :func:`rank_order` hands Algorithm 1."""
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

    The simulator and the tuner price this phase with
    :func:`predict_seconds` (a sampled fraction of the compression pass);
    the real driver runs the actual ratio-quality model — or, when
    warm-start hints are provided (the streaming path of
    :meth:`~repro.api.file.File.append_step`), skips the sampling pass
    entirely and reuses the previous step's sizes.
    """

    enabled: bool = True

    def predict_sizes(
        self,
        fields: Mapping[str, np.ndarray],
        codecs: Mapping[str, "SZCompressor"],
        config: PipelineConfig,
        hints: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Predicted compressed bytes per field for one rank's partitions.

        The ratio model runs at its fixed sampling constants; ``config`` is
        unused and stays for the call shape ``perfbench/layers.py`` uses.
        """
        if not self.enabled:
            return {name: int(data.nbytes) for name, data in fields.items()}
        if hints is not None:
            missing = set(fields) - set(hints)
            if missing:
                raise ConfigError(f"warm-start hints missing fields: {sorted(missing)}")
            return {name: int(hints[name]) for name in fields}
        out: dict[str, int] = {}
        for name, data in fields.items():
            out[name] = RatioQualityModel(codecs[name]).predict(data).predicted_nbytes
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
        ratios: np.ndarray | None = None,
    ) -> OffsetTable:
        """Slot layout from all-gathered [nfields][nranks] size matrices.

        ``ratios`` is an all-gathered [nfields][nranks] matrix of per-slot
        extra-space ratios (a warm-started step's hints carry them); without
        it every slot takes the configured Rspace.  A plan without extra
        space ignores it.
        """
        if not self.extra_space:
            rspace = 1.0
        elif ratios is None:
            rspace = config.extra_space_ratio
        else:
            rspace = ratios
        return OffsetTable.compute(sizes, originals, rspace, base_offset=base_offset)


@dataclass(frozen=True)
class CompressWritePhase:
    """Phase 3 — compression (optionally reordered).

    ``reorder=True`` applies Algorithm 1 to the field order.  Whether the
    writes overlap compression follows from the plan: a predicted-offset
    plan lets each field's write start as soon as it is compressed.
    """

    compress: bool = True
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

    The set is closed (:data:`STRATEGIES`), so the interpreters rely on
    what the four share: a predictive strategy predicts, plans with extra
    space, overlaps its writes and repairs overflow; ``filter`` plans from
    exact sizes and cannot overflow; ``nocomp`` writes raw slabs in place.
    :meth:`program` is that sequence as data.
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

    def program(self, warm_start: bool = False) -> tuple[frozenset[str], ...]:
        """The phase program: segments of phase kinds (the simulator's
        ``TraceRecord`` kinds), one all-gather between each segment and the
        next.

        ===================  ==============================================
        ``nocomp``           {write}
        ``filter``           {compress} | {write}
        ``overlap/reorder``  {predict} | {compress, write} | {overflow}
        ===================  ==============================================

        ``compress`` and ``write`` in one segment is the overlapped queue:
        each field's write starts once it is compressed and a rank's writes
        drain in issue order.  A ``write`` segment after an all-gather is
        the collective write of exact sizes; a first one is independent raw
        writes.  A warm-started predictive strategy (sizes carried from the
        previous step) keeps its first all-gather but drops ``predict``.
        """
        if not self.compresses:
            return (frozenset({"write"}),)
        if not self.predictive:
            return (frozenset({"compress"}), frozenset({"write"}))
        predict = frozenset() if warm_start else frozenset({"predict"})
        return (predict, frozenset({"compress", "write"}), frozenset({"overflow"}))


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
            CompressWritePhase(compress=False),
            OverflowPhase(enabled=False),
        ),
        "filter": WriteStrategy(
            "filter",
            PredictPhase(enabled=False),
            PlanPhase(source="actual", extra_space=False),
            CompressWritePhase(compress=True),
            OverflowPhase(enabled=False),
        ),
        "overlap": WriteStrategy(
            "overlap",
            PredictPhase(enabled=True),
            PlanPhase(source="predicted", extra_space=True),
            CompressWritePhase(compress=True, reorder=False),
            OverflowPhase(enabled=True),
        ),
        "reorder": WriteStrategy(
            "reorder",
            PredictPhase(enabled=True),
            PlanPhase(source="predicted", extra_space=True),
            CompressWritePhase(compress=True, reorder=True),
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


# ---------------------------------------------------------------------------
# What every interpreter of a program shares
# ---------------------------------------------------------------------------
def rank_order(
    strategy: WriteStrategy,
    models,
    n_values: Sequence[int],
    planned_nbytes: Sequence[int],
) -> list[int]:
    """One rank's compression order, as field indexes: Algorithm 1 over
    the Eq. (1)/(2) ``models``' task costs at the planned sizes, or the
    field order when the strategy does not reorder."""
    cw = strategy.compress_write
    if not cw.reorder:
        return list(range(len(n_values)))
    compress_s, write_s = predict_phase_costs(*models, n_values, planned_nbytes)
    names = [str(f) for f in range(len(n_values))]
    return [int(name) for name in cw.field_order(names, compress_s, write_s)]


def predict_seconds(compress_seconds: float) -> float:
    """Price of the sampling prediction on a rank whose compression pass
    costs ``compress_seconds``: the sampled fraction of that pass plus the
    sampling overhead (paper: <10% of compression time)."""
    return compress_seconds * DEFAULT_FRACTION * PREDICT_OVERHEAD_FACTOR


def gather_seconds(
    program: tuple[frozenset[str], ...],
    machine: "MachineProfile",
    nranks: int,
    nfields: int,
) -> list[float]:
    """Seconds of each all-gather of ``program``, in order.

    Each one exchanges ``nfields`` sizes per rank.  The one that opens an
    overlapped compress/write segment also prices the offset plan and
    Algorithm 1 every rank then computes; the filter baseline's exact-size
    plan is not priced.
    """
    allgather = machine.comm.allgather_seconds(nranks, 8.0 * nfields)
    plan = PLAN_SECONDS_PER_FIELD_SQ * nfields * nfields
    return [allgather + plan if {"compress", "write"} <= s else allgather for s in program[1:]]


def offline_plan(
    strategy: WriteStrategy,
    predicted: np.ndarray,
    original: np.ndarray,
    actual: np.ndarray,
    config: PipelineConfig,
    grow_slots: bool = False,
) -> tuple[OffsetTable | None, OverflowPlan | None]:
    """The offset table and overflow plan of a predictive strategy over
    [nfields][nranks] size matrices known up front, at :data:`BASE_OFFSET`;
    ``(None, None)`` for the baselines.

    ``grow_slots`` widens every under-reserved slot to its actual size
    (the "no overflow handling" reference of the paper's Fig. 14).
    """
    if not strategy.predictive:
        return None, None
    table = strategy.plan.compute_table(predicted, original, config, BASE_OFFSET)
    if grow_slots:
        table = replace(table, reserved=np.maximum(table.reserved, actual))
    return table, strategy.overflow.compute_plan(actual, table.reserved, table.data_end)
