"""Lightweight wall-clock timer for calibration.

The paper's offline calibration measures real compression wall time;
:class:`Timer` wraps ``time.perf_counter`` as an accumulating stopwatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Context-manager stopwatch accumulating elapsed seconds.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    count: int = 0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed += time.perf_counter() - self._start
        self.count += 1

    def reset(self) -> None:
        """Zero the accumulated time and invocation count."""
        self.elapsed = 0.0
        self.count = 0

    @property
    def mean(self) -> float:
        """Average seconds per timed section (0.0 before first use)."""
        return self.elapsed / self.count if self.count else 0.0
