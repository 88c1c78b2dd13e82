"""One timing mechanism for the timed pass and the traced pass.

``Meter.span`` always measures its block with ``perf_counter`` and files
the duration under the span's name; when ``keep_spans`` is on (the
``--trace`` pass only) it also keeps the span itself — name, workload,
operation id, parent, start, end — in memory until the run ends; a
span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import statistics
import threading
import time
import traceback
from contextlib import contextmanager


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Meter:
    """Durations by name, attempted/failed operation counts, and
    (optionally) the spans themselves."""

    def __init__(self, workload: str, keep_spans: bool = False) -> None:
        self.workload = workload
        self.keep_spans = keep_spans
        self.seconds: "dict[str, list[float]]" = {}
        self.spans: "list[dict]" = []
        self.attempted = 0
        self.failed = 0
        self.first_error: "str | None" = None
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: "int | str | None" = None):
        """Time the block under ``name``; nests (thread-locally) under the
        enclosing span, whose operation id it inherits."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "workload": self.workload,
            "op": op if op is not None else (parent["op"] if parent else None),
            "parent": parent["id"] if parent else None,
            "id": None,
        }
        if self.keep_spans:
            with self._lock:
                record["id"] = len(self.spans)
                self.spans.append(record)
        stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            stack.pop()
            record["start"], record["end"] = start, end
            with self._lock:
                self.seconds.setdefault(name, []).append(end - start)

    @contextmanager
    def operation(self, name: str, op: "int | str | None" = None):
        """A span that is also one attempted user operation: an exception
        inside it counts as a failure and the loop goes on."""
        with self._lock:
            self.attempted += 1
        try:
            with self.span(name, op) as record:
                yield record
        except Exception:  # noqa: BLE001 - the benchmark counts failures
            self.fail(traceback.format_exc())

    def add(self, name: str, seconds: float) -> None:
        """File one attempted operation that was timed by hand (it spans
        threads, so no single ``with`` block covers it)."""
        with self._lock:
            self.attempted += 1
            self.seconds.setdefault(name, []).append(seconds)

    def reset(self) -> None:
        """Forget everything measured so far (the end of a warm-up)."""
        with self._lock:
            self.seconds.clear()
            self.spans.clear()
            self.attempted = self.failed = 0
            self.first_error = None

    def fail(self, why: str) -> None:
        """Count one failed operation (exception, refused request, or a
        read-back outside its error bound)."""
        with self._lock:
            self.failed += 1
            if self.first_error is None:
                self.first_error = why

    # -- summaries -----------------------------------------------------------

    def count(self, name: str) -> int:
        return len(self.seconds.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.seconds.get(name, ())))

    def median(self, name: str) -> float:
        return statistics.median(self.seconds[name])

    def pct(self, name: str, q: float) -> float:
        return percentile(self.seconds[name], q)
