"""Compression-order optimization — the paper's Algorithm 1.

Each rank compresses its fields sequentially while finished fields write
asynchronously.  With predicted per-field compression times ``Pc`` and
write times ``Pw``, the completion time of a queue is computed exactly as
the paper's ``TIME`` procedure::

    tc, tw = 0, 0
    for field in queue:
        tc += Pc(field)             # compression is sequential
        tw  = Pw(field) + max(tc, tw)   # its write starts after both its
                                        # compression and the previous write
    return tw

(the single-I/O-stream assumption: one rank's outstanding writes drain in
issue order).  The optimizer inserts fields one at a time at the best
position — O(n²) insertions, each evaluated in O(n) — which the paper
reports costs ~0.17% of compression time even at n=100 fields.

The total compression time is order-invariant; only *write exposure* after
the last compression changes.  Intuition (paper Fig. 4): fields with long
writes should start early, so the classic result applies — this is a
two-machine flow-shop and ascending-``Pc``/descending-``Pw`` style orders
win; Johnson's rule gives the true optimum for n ≥ 2, which the tests use
as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulingError


@dataclass(frozen=True)
class CompressionTask:
    """One field's predicted costs on one rank."""

    field: str
    predicted_compress_seconds: float
    predicted_write_seconds: float

    def __post_init__(self) -> None:
        if self.predicted_compress_seconds < 0 or self.predicted_write_seconds < 0:
            raise SchedulingError("negative predicted times")


def queue_time(queue: Sequence[CompressionTask]) -> float:
    """The paper's TIME procedure: completion time of an ordered queue."""
    tc = 0.0
    tw = 0.0
    for task in queue:
        tc += task.predicted_compress_seconds
        tw = task.predicted_write_seconds + max(tc, tw)
    return tw


def optimize_order(tasks: Sequence[CompressionTask]) -> list[CompressionTask]:
    """Algorithm 1: greedy best-position insertion.

    Deterministic: ties keep the earliest candidate position (the paper's
    ``or first β`` initialisation keeps the first insertion).
    """
    queue: list[CompressionTask] = []
    for task in tasks:
        best_queue: list[CompressionTask] | None = None
        best_time = 0.0
        for beta in range(len(queue) + 1):
            candidate = queue[:beta] + [task] + queue[beta:]
            t = queue_time(candidate)
            if best_queue is None or t < best_time:
                best_queue = candidate
                best_time = t
        queue = best_queue if best_queue is not None else [task]
    return queue


def johnson_order(tasks: Sequence[CompressionTask]) -> list[CompressionTask]:
    """Johnson's rule for the 2-machine flow shop (optimal oracle).

    Provided for testing and the ablation benchmark: tasks with
    ``Pc <= Pw`` go first in ascending ``Pc``; the rest go last in
    descending ``Pw``.  This minimizes makespan for exactly the TIME()
    model, so ``queue_time(optimize_order(T))`` can be compared against
    the true optimum.
    """
    front = sorted(
        (t for t in tasks if t.predicted_compress_seconds <= t.predicted_write_seconds),
        key=lambda t: t.predicted_compress_seconds,
    )
    back = sorted(
        (t for t in tasks if t.predicted_compress_seconds > t.predicted_write_seconds),
        key=lambda t: t.predicted_write_seconds,
        reverse=True,
    )
    return front + back
