"""The executor backends behind the ``map_cells`` / ``map_ranks`` API.

Semantics shared by every backend (and asserted by the executor tests):

* **Deterministic ordering** — ``map_cells(fn, items)`` returns results
  in item order and ``map_ranks(nranks, fn)`` in rank order, regardless
  of completion order.
* **Lowest-index error propagation** — every cell/rank is attempted;
  when any raise, the exception of the *lowest* failing index is
  re-raised in the caller after all work settles, exactly matching
  :func:`repro.mpi.executor.run_spmd`.  Parallel completion order can
  never change which error the caller observes.
* **SPMD needs concurrency** — barrier-synchronized rank functions
  cannot run one-after-another, so ``map_ranks`` always gives each rank
  its own thread.  ``SerialExecutor.map_ranks`` is therefore exactly the
  historical ``run_spmd`` (dedicated threads); the thread backend reuses
  its pool threads when the pool is wide enough.

The ``serial`` backend is the default everywhere so existing numerics
stay bit-identical; parallel backends change wall-clock only — written
bytes, statistics, and tuning choices are asserted identical across
backends.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

from repro.errors import ConfigError
from repro.mpi.executor import run_spmd

#: Registered backend names, selection order (serial is the default).
EXECUTOR_NAMES = ("serial", "thread")


def _settle(results: list[Any], errors: list[BaseException | None]) -> list[Any]:
    """Shared error tail: raise the lowest-index failure, else results."""
    for err in errors:
        if err is not None:
            raise err
    return results


class Executor(ABC):
    """One scheduling backend for the library's fan-out hot paths."""

    #: registry name ("serial" / "thread").
    name: str = "abstract"
    #: cells ``map_cells`` may run at once.
    max_workers: int = 1

    @property
    def parallel(self) -> bool:
        """True when ``map_cells`` may run items concurrently."""
        return self.name != "serial"

    @property
    def cells_parallel_here(self) -> bool:
        """True when a ``map_cells`` call *from the current thread* would
        actually run cells concurrently.

        Differs from :attr:`parallel` on the thread backend, whose nested
        calls from its own pool workers run inline (see
        :class:`ThreadPoolExecutor`); callers restructuring work around a
        parallel fan-out (e.g. compress-all-then-write instead of the
        overlap loop) should consult this, not :attr:`parallel`.
        """
        return self.parallel

    @abstractmethod
    def map_cells(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item; ordered results, lowest-index error."""

    def map_ranks(
        self,
        nranks: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float | None = 120.0,
        **kwargs: Any,
    ) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` SPMD ranks.

        Default implementation: dedicated threads via
        :func:`~repro.mpi.executor.run_spmd` (pool backends override to
        reuse workers when safe).
        """
        return run_spmd(nranks, fn, *args, timeout=timeout, **kwargs)

    def close(self) -> None:
        """Release pooled workers (idempotent; no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialExecutor(Executor):
    """In-process, in-order execution — the bit-identical default.

    ``map_cells`` runs every item in index order on the calling thread.
    All items are attempted even after a failure so side effects match
    the parallel backends, then the lowest-index error propagates.
    """

    name = "serial"

    def map_cells(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        results: list[Any] = [None] * len(items)
        errors: list[BaseException | None] = [None] * len(items)
        for i, item in enumerate(items):
            try:
                results[i] = fn(item)
            except Exception as exc:  # noqa: BLE001 - re-raised in _settle
                errors[i] = exc
        return _settle(results, errors)


class ThreadPoolExecutor(Executor):
    """A shared ``concurrent.futures`` thread pool.

    Pays off wherever the work releases the GIL — zlib/NumPy compression
    kernels, positioned file I/O — and for SPMD steps, where pool threads
    replace per-step thread spawning.

    Nesting is deadlock-proof by construction: a ``map_cells`` call made
    *from one of this pool's own workers* (e.g. per-field compression
    inside a pooled SPMD rank) runs inline on the calling thread instead
    of submitting — rank tasks can therefore never fill the pool and then
    block on cell futures no worker is free to run.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ConfigError("max_workers must be positive")
        self.max_workers = int(max_workers or min(32, (os.cpu_count() or 1) + 4))
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._tls = threading.local()
        # Workers currently reserved by in-flight map_ranks calls; SPMD
        # needs one *live* worker per rank, so capacity is reserved
        # atomically and concurrent runs that would not fit fall back to
        # dedicated threads instead of queueing behind each other's
        # barriers.
        self._ranks_in_flight = 0

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        # Guarded: dedicated rank threads can hit first use concurrently.
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    @property
    def in_worker(self) -> bool:
        """True on threads currently executing this pool's work."""
        return getattr(self._tls, "depth", 0) > 0

    @property
    def cells_parallel_here(self) -> bool:
        return not self.in_worker

    def _submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Submit ``fn`` wrapped so the worker thread is marked as ours."""

        def marked(*a: Any) -> Any:
            self._tls.depth = getattr(self._tls, "depth", 0) + 1
            try:
                return fn(*a)
            finally:
                self._tls.depth -= 1

        return self._ensure_pool().submit(marked, *args)

    def map_cells(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1 or self.in_worker:
            return SerialExecutor().map_cells(fn, items)
        futures = [self._submit(fn, item) for item in items]
        results: list[Any] = [None] * len(items)
        errors: list[BaseException | None] = [None] * len(items)
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except Exception as exc:  # noqa: BLE001 - re-raised in _settle
                errors[i] = exc
        return _settle(results, errors)

    def map_ranks(
        self,
        nranks: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float | None = 120.0,
        **kwargs: Any,
    ) -> list[Any]:
        """SPMD on pool threads when the pool is wide enough.

        Barrier-synchronized ranks need one *live* worker each, so pool
        capacity is reserved atomically per run; a run that would not fit
        — the pool is narrower than ``nranks``, or concurrent ``map_ranks``
        calls already hold the workers — falls back to dedicated threads
        (same semantics, fresh threads) instead of queueing some ranks
        behind peers stuck at a barrier.  Pooled ranks run their nested
        ``map_cells`` inline (see class docstring); dedicated rank
        threads still fan cells out to the pool.
        """
        with self._pool_lock:
            pooled = nranks <= self.max_workers - self._ranks_in_flight
            if pooled:
                self._ranks_in_flight += nranks
        if not pooled:
            return run_spmd(nranks, fn, *args, timeout=timeout, **kwargs)
        try:
            return run_spmd(nranks, fn, *args, timeout=timeout, submit=self._submit, **kwargs)
        finally:
            with self._pool_lock:
                self._ranks_in_flight -= nranks

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_EXECUTORS: dict[str, Callable[..., Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolExecutor,
}


def get_executor(name: str, **kwargs: Any) -> Executor:
    """Instantiate the executor registered under ``name``."""
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ConfigError(f"unknown executor {name!r}; available: {list(EXECUTOR_NAMES)}") from None
    return factory(**kwargs)


def resolve_executor(spec: "str | Executor | None") -> Executor:
    """Coerce a config value — name, instance, or None — to an executor.

    ``None`` resolves to a fresh :class:`SerialExecutor` (stateless, so
    cheap); instances pass through unchanged so callers can share pools.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        return get_executor(spec)
    raise ConfigError(f"executor spec must be a name or Executor, not {type(spec).__name__}")
