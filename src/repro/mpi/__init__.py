"""Thread-backed SPMD runtime (MPI stand-in).

mpi4py is unavailable offline, so functional parallel execution runs N
ranks as Python threads over a shared-memory communicator implementing the
collectives the paper's pipeline needs (barrier, allgather).
Coordination logic — offset agreement, overflow resolution, shared-file
layout — is exercised for real; *timing* is not meaningful under the GIL,
which is why performance experiments live in :mod:`repro.sim` instead.
"""

from repro.mpi.comm import RankComm, ThreadCommWorld
from repro.mpi.executor import run_spmd
from repro.mpi.sharedfile import SharedFile

__all__ = ["RankComm", "ThreadCommWorld", "run_spmd", "SharedFile"]
