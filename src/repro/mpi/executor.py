"""SPMD launcher: run one function on N thread ranks.

``run_spmd(nranks, fn, *args)`` starts ``nranks`` threads, each calling
``fn(comm, *args)`` with its own :class:`~repro.mpi.comm.RankComm`.  Return
values are collected in rank order; the first rank exception (by rank
number) is re-raised in the caller after all threads stop, so failures are
loud and deterministic.  This is the library's one SPMD fan-out:
:meth:`repro.core.pipeline.RealDriver.write` is its caller.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import RuntimeLayerError
from repro.mpi.comm import RankComm, ThreadCommWorld


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = 120.0,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` thread ranks.

    Returns the per-rank return values in rank order.  If any rank raises,
    the lowest-rank exception propagates (after joining all threads, so no
    thread leaks).  ``timeout`` bounds the join per thread; a hang raises
    :class:`RuntimeLayerError`.
    """
    if nranks <= 0:
        raise RuntimeLayerError("nranks must be positive")
    world = ThreadCommWorld(nranks)
    results: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks

    def runner(rank: int, comm: RankComm) -> None:
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - rethrown in caller
            errors[rank] = exc
            # Break any barrier the other ranks may be stuck in.
            world._barrier.abort()

    threads = [
        threading.Thread(
            target=runner, args=(rank, world.rank_comm(rank)), name=f"rank-{rank}", daemon=True
        )
        for rank in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            # Unblock any rank stuck in a collective so the threads can
            # exit instead of leaking.
            world._barrier.abort()
            raise RuntimeLayerError(f"SPMD thread {t.name} did not finish (deadlock?)")
    for rank, err in enumerate(errors):
        if err is not None and not isinstance(err, threading.BrokenBarrierError):
            raise err
    # If only broken-barrier errors remain, surface the first of those.
    for err in errors:
        if err is not None:
            raise RuntimeLayerError("SPMD run aborted via broken barrier") from err
    return results
