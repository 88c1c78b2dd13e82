"""Per-dataset pipeline settings and their resolution against file defaults.

The facade keeps h5py's keyword ergonomics (``f.create_dataset(name, shape,
error_bound=1e-3, strategy="auto")``) while the engine keeps its explicit
configuration objects.  :class:`DatasetSettings` is the bridge: it records
only what the caller overrode, and :meth:`DatasetSettings.resolved_config`
projects those overrides onto the file-level
:class:`~repro.core.config.PipelineConfig` — so two datasets in one file
can run at different error bounds, extra-space ratios, or strategies while
sharing everything they did not override.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import PipelineConfig, extra_space_for_weight
from repro.core.strategy import get_strategy
from repro.errors import ConfigError

#: Strategy name asking the facade to auto-tune per write (snapshot
#: datasets price all four strategies from predicted sizes; time-axis
#: datasets re-tune per step from measured actuals).
AUTO = "auto"


def validate_strategy(name: str) -> str:
    """Validate a user-supplied strategy name (``"auto"`` included)."""
    if name != AUTO:
        get_strategy(name)
    return name


@dataclass(frozen=True)
class DatasetSettings:
    """What one facade dataset overrides relative to its file.

    ``None`` always means "inherit the file-level default".  An
    ``error_bound`` of ``None`` means the dataset is written *losslessly*
    (the raw ``nocomp`` path) unless a compressing strategy was explicitly
    requested — mirroring h5py, where a dataset without a compression
    filter stores exact bytes.
    """

    #: absolute (or value-range-relative) error bound for the SZ codec.
    error_bound: float | None = None
    #: bound interpretation: ``"abs"`` or ``"rel"``.
    bound_mode: str = "abs"
    #: strategy name, ``"auto"``, or None (file default).
    strategy: str | None = None
    #: extra-space ratio Rspace override (paper Section III-D domain).
    extra_space_ratio: float | None = None
    #: Fig. 9 performance-vs-storage weight (mapped onto Rspace).
    performance_weight: float | None = None
    #: SPMD width override for facade-partitioned writes.
    nranks: int | None = None

    def __post_init__(self) -> None:
        if self.error_bound is not None and not self.error_bound > 0.0:
            raise ConfigError(
                f"error_bound must be positive; got {self.error_bound!r} "
                "(omit it entirely for lossless storage)"
            )
        if self.bound_mode not in ("abs", "rel"):
            raise ConfigError(f"bound_mode must be 'abs' or 'rel', not {self.bound_mode!r}")
        if self.strategy is not None:
            validate_strategy(self.strategy)
        if self.extra_space_ratio is not None and self.performance_weight is not None:
            raise ConfigError(
                "give either extra_space_ratio or performance_weight, not both "
                "(performance_weight maps onto the extra-space ratio)"
            )
        if self.performance_weight is not None:
            # Validate eagerly so the error points at dataset creation.
            extra_space_for_weight(self.performance_weight)
        if self.nranks is not None and self.nranks <= 0:
            raise ConfigError("nranks must be positive")

    def resolved_config(self, base: PipelineConfig) -> PipelineConfig:
        """The file-level config with this dataset's overrides applied."""
        overrides: dict = {}
        if self.extra_space_ratio is not None:
            overrides["extra_space_ratio"] = float(self.extra_space_ratio)
        if self.performance_weight is not None:
            overrides["extra_space_ratio"] = extra_space_for_weight(self.performance_weight)
        return replace(base, **overrides) if overrides else base

    def resolved_strategy(self, file_default: str) -> str:
        """The strategy this dataset executes (before ``"auto"`` tuning).

        Without an explicit strategy, a bounded dataset follows the file
        default and an unbounded one stores raw bytes (``nocomp``).
        """
        if self.strategy is not None:
            name = self.strategy
        elif self.error_bound is None:
            name = "nocomp"
        else:
            name = file_default
        if self.error_bound is None and (
            name == AUTO or get_strategy(name).compresses
        ):
            raise ConfigError(
                f"strategy {name!r} compresses but the dataset declares no "
                "error_bound; pass error_bound=... or drop the strategy"
            )
        return name
