"""Pluggable parallel executors for the fan-out hot paths.

Every fan-out in the library — per-rank SPMD phase execution, per-field
compression, per-strategy auto-tuner pricing, scenario×strategy sweeps —
goes through one :class:`~repro.exec.executors.Executor` API:

* :meth:`~repro.exec.executors.Executor.map_cells` — data-parallel map
  over independent work items with deterministic result ordering and
  lowest-index error propagation;
* :meth:`~repro.exec.executors.Executor.map_ranks` — SPMD execution of
  ``fn(comm)`` on N communicator ranks with
  :func:`~repro.mpi.executor.run_spmd` semantics.

Backends: ``serial`` (the default — bit-identical to the historical
in-loop behavior) and ``thread`` (a shared ``concurrent.futures`` thread
pool; NumPy/zlib release the GIL, so compression scales).
"""

from repro.exec.executors import (
    EXECUTOR_NAMES,
    Executor,
    SerialExecutor,
    ThreadPoolExecutor,
    get_executor,
    resolve_executor,
)

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "get_executor",
    "resolve_executor",
]
