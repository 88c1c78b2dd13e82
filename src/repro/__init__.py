"""repro — reproduction of "Accelerating Parallel Write via Deeply
Integrating Predictive Lossy Compression with HDF5" (SC 2022).

Top-level convenience re-exports cover the objects most users need; the
subpackages hold the full system:

* :mod:`repro.compression` — SZ-style error-bounded lossy compressor.
* :mod:`repro.modeling` — ratio / compression-throughput / write-time models.
* :mod:`repro.data` — synthetic Nyx / VPIC dataset generators.
* :mod:`repro.hdf5` — HDF5-like parallel file substrate with the SZ filter
  and an async-VOL layer.
* :mod:`repro.mpi` — thread-backed SPMD runtime (communicators, shared file).
* :mod:`repro.sim` — discrete-event simulator with Summit/Bebop machine
  profiles for timing experiments at scale.
* :mod:`repro.core` — the paper's contribution: predictive offsets, extra
  space, overflow handling, compression-order optimization, and the four
  write strategies.
* :mod:`repro.api` — the h5py-style facade: :func:`repro.open` routes
  every dataset write through the predictive engine transparently.
* :mod:`repro.bench` — experiment harness regenerating every table/figure.
"""

from repro._version import __version__
from repro.api import Dataset, File, Group, open
from repro.compression import SZCompressor
from repro.core.config import PipelineConfig
from repro.errors import ReproError

__all__ = [
    "__version__",
    "open",
    "File",
    "Group",
    "Dataset",
    "PipelineConfig",
    "SZCompressor",
    "ReproError",
]
