"""What is left of the executor backends: one name for the benchmark.

The library has one SPMD fan-out, :func:`repro.mpi.executor.run_spmd`,
and every other fan-out is a plain loop.  :func:`get_executor` survives
only because ``perfbench/layers.py`` times ``map_ranks`` through it:
either retired backend name returns the same object, whose ``map_ranks``
is :func:`~repro.mpi.executor.run_spmd` and whose ``close`` does nothing.
Nothing in the package calls it.
"""

from repro.errors import ConfigError
from repro.mpi.executor import run_spmd


class _SPMD:
    """``map_ranks`` is :func:`~repro.mpi.executor.run_spmd`."""

    map_ranks = staticmethod(run_spmd)

    def close(self) -> None:
        """Nothing to release."""


#: The one object :func:`get_executor` returns.
SPMD = _SPMD()


def get_executor(name: str) -> _SPMD:
    """:data:`SPMD` for a retired backend name ("serial" / "thread")."""
    if name not in ("serial", "thread"):
        raise ConfigError(f"unknown executor {name!r}; available: ['serial', 'thread']")
    return SPMD


__all__ = ["SPMD", "get_executor"]
