"""Phase-based write strategies and the strategy registry.

The paper's predictive write scheme is a sequence of four phases — predict
sizes, all-gather/offset plan, ordered compression overlapped with async
writes, overflow repair — and every "solution" of Fig. 4 is a particular
configuration of those phases.  This module defines each phase once as a
composable unit sharing the pure :class:`~repro.core.offsets.OffsetTable` /
:class:`~repro.core.overflow.OverflowPlan` mathematics, and a
:class:`WriteStrategy` as a named composition of phases.

One strategy definition runs in *two worlds*:

* :class:`repro.core.writers.SimDriver` executes it on the discrete-event
  simulator (cost-model timing at scale);
* :class:`repro.core.pipeline.RealDriver` executes it on thread ranks
  against a real PHD5 shared file (functional correctness).

Because both drivers consume the same phase objects, sim-vs-real
consistency is directly testable: per-rank predicted/actual/overflow byte
counts must agree between the two executions of the same strategy.

Extension point
---------------
New strategies (aggregation, adaptive extra space, restart/append, ...)
register themselves with the :func:`register_strategy` class decorator::

    @register_strategy("my-variant")
    class MyStrategy(WriteStrategy):
        predict = PredictPhase(enabled=True)
        plan = PlanPhase(source="predicted", extra_space=True)
        compress_write = CompressWritePhase(compress=True, overlap=True)
        overflow = OverflowPhase(enabled=True)

and become available to both drivers, the benchmark suite, and the
``repro.open`` facade (snapshot and streamed datasets alike) by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.core.scheduler import CompressionTask, optimize_order
from repro.errors import ConfigError
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
    :class:`~repro.core.session.TimestepSession` streaming path), skips
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
            for name, c, w in zip(
                fields, predicted_compress_seconds, predicted_write_seconds
            )
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
# Strategies
# ---------------------------------------------------------------------------

class WriteStrategy:
    """A named composition of write phases, executable by both drivers.

    Subclasses override the four phase attributes; drivers never test a
    strategy's *name*, only its phase configuration, so new registered
    strategies work everywhere without driver changes.
    """

    #: short registry name, e.g. ``"reorder"``; set by :func:`register_strategy`.
    name: str = "abstract"

    predict: PredictPhase = PredictPhase(enabled=False)
    plan: PlanPhase | None = None
    compress_write: CompressWritePhase = CompressWritePhase()
    overflow: OverflowPhase = OverflowPhase(enabled=False)

    @property
    def compresses(self) -> bool:
        """True when the strategy runs the codec at all."""
        return self.compress_write.compress

    @property
    def predictive(self) -> bool:
        """True for predicted-offset (pre-compression plan) strategies."""
        return self.plan is not None and self.plan.source == "predicted"

    def validate(self) -> None:
        """Reject phase combinations no driver can honor.

        The engine's contract is that a registered configuration executes
        as declared; combinations that would be silent no-ops (or are
        causally impossible, like overlapping writes whose offsets only
        exist after every stream is compressed) fail loudly instead.
        """
        cw, plan = self.compress_write, self.plan
        label = f"strategy {self.name!r}"
        if cw.compress:
            if plan is None:
                raise ConfigError(f"{label}: compressing strategies need a PlanPhase")
            if plan.source == "actual":
                if cw.overlap or cw.reorder:
                    raise ConfigError(
                        f"{label}: a post-compression plan cannot overlap or "
                        "reorder — offsets are unknown until every stream is "
                        "compressed (use PlanPhase(source='predicted'))"
                    )
                if self.predict.enabled:
                    raise ConfigError(
                        f"{label}: predictions are unused when the plan derives "
                        "from actual sizes"
                    )
                if self.overflow.enabled:
                    raise ConfigError(
                        f"{label}: exact-size plans cannot overflow; disable the "
                        "OverflowPhase"
                    )
        else:
            if plan is not None or cw.reorder or self.predict.enabled or self.overflow.enabled:
                raise ConfigError(
                    f"{label}: non-compressing strategies write raw partitions — "
                    "plan/reorder/predict/overflow phases do not apply"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: dict[str, Callable[..., WriteStrategy]] = {}


def register_strategy(name: str) -> Callable[[type], type]:
    """Class decorator registering a strategy factory under ``name``."""

    def deco(cls: type) -> type:
        if not issubclass(cls, WriteStrategy):
            raise TypeError(f"{cls!r} is not a WriteStrategy subclass")
        cls.name = name
        cls().validate()  # reject configurations no driver can honor
        _REGISTRY[name] = cls
        return cls

    return deco


def get_strategy(name: str, **kwargs: object) -> WriteStrategy:
    """Instantiate the strategy registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def registered_strategies() -> tuple[str, ...]:
    """Registered names in registration (paper presentation) order."""
    return tuple(_REGISTRY)


@register_strategy("nocomp")
class NocompStrategy(WriteStrategy):
    """Baseline 1: independent raw writes, no compression (Fig. 4a)."""

    predict = PredictPhase(enabled=False)
    plan = None
    compress_write = CompressWritePhase(compress=False, overlap=False)
    overflow = OverflowPhase(enabled=False)


@register_strategy("filter")
class FilterStrategy(WriteStrategy):
    """Baseline 2 (H5Z-SZ): compress all, all-gather actual sizes, then a
    synchronized collective write into an exact layout (Fig. 4b)."""

    predict = PredictPhase(enabled=False)
    plan = PlanPhase(source="actual", extra_space=False)
    compress_write = CompressWritePhase(compress=True, overlap=False)
    overflow = OverflowPhase(enabled=False)


@register_strategy("overlap")
class OverlapStrategy(WriteStrategy):
    """The paper's predictive scheme: predict → plan with extra space →
    compress with overlapped async writes → overflow repair (Fig. 4c)."""

    predict = PredictPhase(enabled=True)
    plan = PlanPhase(source="predicted", extra_space=True)
    compress_write = CompressWritePhase(compress=True, overlap=True, reorder=False)
    overflow = OverflowPhase(enabled=True)


@register_strategy("reorder")
class ReorderStrategy(OverlapStrategy):
    """``overlap`` plus the Algorithm 1 compression-order optimization
    (Fig. 4d, the paper's full solution)."""

    compress_write = CompressWritePhase(compress=True, overlap=True, reorder=True)
