"""Shared-memory communicator for thread ranks.

:class:`ThreadCommWorld` owns the shared state; each rank holds a
:class:`RankComm` facade exposing MPI-flavoured operations:

* ``barrier()`` — ``threading.Barrier`` under the hood;
* ``allgather(obj)`` — everyone contributes, everyone gets the full list.

Collectives are *generation based*: each call allocates a slot list guarded
by a barrier pair, so back-to-back collectives never race.  Objects are
passed by reference (threads share memory) — callers follow the MPI
convention of not mutating buffers in flight; NumPy arrays communicated
through these calls should be treated as read-only by receivers.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import CommunicatorError


class ThreadCommWorld:
    """Shared state for one group of thread ranks."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise CommunicatorError("communicator size must be positive")
        self.size = size
        self._barrier = threading.Barrier(size)
        self._lock = threading.Lock()
        self._slots: dict[str, list[Any]] = {}
        self._generation: dict[str, int] = {}

    def rank_comm(self, rank: int) -> "RankComm":
        """The communicator facade for one rank."""
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range [0, {self.size})")
        return RankComm(self, rank)

    def comms(self) -> list["RankComm"]:
        """Facades for all ranks, rank order."""
        return [self.rank_comm(r) for r in range(self.size)]

    def _slot_list(self, op: str) -> list[Any]:
        with self._lock:
            gen = self._generation.get(op, 0)
            key = f"{op}#{gen}"
            slots = self._slots.get(key)
            if slots is None:
                slots = self._slots[key] = [None] * self.size
            return slots

    def _advance(self, op: str) -> None:
        with self._lock:
            gen = self._generation.get(op, 0)
            self._slots.pop(f"{op}#{gen - 1}", None)  # free the previous round
            self._generation[op] = gen + 1


class RankComm:
    """One rank's view of the communicator."""

    def __init__(self, world: ThreadCommWorld, rank: int) -> None:
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.world.size

    def barrier(self) -> None:
        """Block until every rank arrives."""
        self.world._barrier.wait()

    def allgather(self, obj: Any) -> list[Any]:
        """Contribute ``obj``; receive every rank's contribution in order."""
        slots = self.world._slot_list("allgather")
        slots[self.rank] = obj
        self.barrier()
        out = list(slots)
        # Second barrier before recycling the slot list for the next round.
        if self.world._barrier.wait() == 0:
            self.world._advance("allgather")
        self.world._barrier.wait()
        return out
