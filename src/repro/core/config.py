"""Pipeline configuration and the extra-space ratio policy.

The extra-space ratio ``Rspace`` is the paper's central tunable: slot size
= predicted size × Rspace.  Section III-D restricts it to **[1.1, 1.43]**
("(1) an extremely high time overhead below 1.1, and (2) a low efficiency
of trading storage for performance after 1.43"), defaulting to **1.25**.

:func:`extra_space_for_weight` is the Fig. 9 mapping: users give a single
weight trading write-performance overhead against storage overhead, and the
library picks Rspace inside the supported interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigError
from repro.hdf5.properties import FileAccessProps
from repro.modeling.sampling import DEFAULT_FRACTION

#: Supported extra-space interval (paper Section III-D).
EXTRA_SPACE_MIN = 1.1
EXTRA_SPACE_MAX = 1.43

#: Default extra-space ratio (paper: "We set the default ... to 1.25").
EXTRA_SPACE_DEFAULT = 1.25


def extra_space_for_weight(performance_weight: float) -> float:
    """Map a performance-vs-storage weight to an extra-space ratio (Fig. 9).

    ``performance_weight = 1`` means "minimize write-performance overhead"
    (more padding → Rspace at the top of the interval); ``0`` means
    "minimize storage overhead" (Rspace at the bottom).  The interior is an
    exponential interpolation matching the convex overhead trade-off the
    paper measures: performance overhead falls steeply just above 1.1 and
    flattens, so equal weight lands near the 1.25 default.
    """
    if not 0.0 <= performance_weight <= 1.0:
        raise ConfigError("performance weight must be in [0, 1]")
    span = EXTRA_SPACE_MAX - EXTRA_SPACE_MIN
    # Convex ramp: w=0 -> 1.1, w=0.5 -> ~1.25 (the default), w=1 -> 1.43.
    shaped = performance_weight**1.14
    return EXTRA_SPACE_MIN + span * shaped


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the predictive compression-write pipeline: the
    paper's extra-space ratio, the one setting."""

    #: extra-space ratio Rspace in [1.1, 1.43].
    extra_space_ratio: float = EXTRA_SPACE_DEFAULT
    #: not settings: the constants the pipeline uses (the ratio model's
    #: sampling fraction and lossless estimator, the file's write-pool
    #: width, the retired executor's name), kept only for
    #: ``perfbench/layers.py``, which reads them; nothing in the package does.
    sample_fraction: ClassVar[float] = DEFAULT_FRACTION
    lossless_estimator: ClassVar[str] = "rle"
    async_workers: ClassVar[int] = FileAccessProps.async_workers
    executor: ClassVar[str] = "serial"

    def __post_init__(self) -> None:
        if not EXTRA_SPACE_MIN <= self.extra_space_ratio <= EXTRA_SPACE_MAX:
            raise ConfigError(
                f"extra_space_ratio must be in [{EXTRA_SPACE_MIN}, {EXTRA_SPACE_MAX}] "
                f"(paper Section III-D); got {self.extra_space_ratio}"
            )

    @classmethod
    def from_weight(cls, performance_weight: float) -> "PipelineConfig":
        """Build a config from the Fig. 9 performance/storage weight."""
        return cls(extra_space_ratio=extra_space_for_weight(performance_weight))
