"""SPMD launcher: run one function on N thread ranks.

``run_spmd(nranks, fn, *args)`` starts ``nranks`` threads, each calling
``fn(comm, *args)`` with its own :class:`~repro.mpi.comm.RankComm`.  Return
values are collected in rank order; the first rank exception (by rank
number) is re-raised in the caller after all threads stop, so failures are
loud and deterministic.

The optional ``submit`` hook lets a pool-backed executor
(:class:`repro.exec.ThreadPoolExecutor`) reuse long-lived workers instead
of spawning a thread per rank per call — ``append_step`` runs one SPMD
write per time-step, so spawn overhead is recurring.  The
hook must provide genuine per-rank concurrency (one in-flight worker per
rank), or barrier-synchronized rank functions would deadlock.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any, Callable

from repro.errors import RuntimeLayerError
from repro.mpi.comm import RankComm, ThreadCommWorld


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = 120.0,
    submit: Callable[..., Any] | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` thread ranks.

    Returns the per-rank return values in rank order.  If any rank raises,
    the lowest-rank exception propagates (after joining all threads, so no
    thread leaks).  ``timeout`` bounds the join per thread; a hang raises
    :class:`RuntimeLayerError`.  ``submit(runner, rank, comm)`` — when
    given — schedules each rank body on an existing pool and must return a
    future with ``result(timeout)``.
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

    if submit is None:
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
                # Unblock any rank stuck in a collective so the (possibly
                # pooled, non-daemon) threads can exit instead of leaking.
                world._barrier.abort()
                raise RuntimeLayerError(f"SPMD thread {t.name} did not finish (deadlock?)")
    else:
        futures = [submit(runner, rank, world.rank_comm(rank)) for rank in range(nranks)]
        for rank, fut in enumerate(futures):
            try:
                fut.result(timeout)
            # concurrent.futures.TimeoutError is the builtin only on 3.11+.
            except (TimeoutError, concurrent.futures.TimeoutError):
                world._barrier.abort()
                raise RuntimeLayerError(
                    f"SPMD rank {rank} did not finish (deadlock?)"
                ) from None
    for rank, err in enumerate(errors):
        if err is not None and not isinstance(err, threading.BrokenBarrierError):
            raise err
    # If only broken-barrier errors remain, surface the first of those.
    for err in errors:
        if err is not None:
            raise RuntimeLayerError("SPMD run aborted via broken barrier") from err
    return results
