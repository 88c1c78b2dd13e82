"""Pure-Python HDF5-like parallel file library.

Real HDF5 cannot be modified from Python, and the paper's scheme needs
*deep* integration: write offsets computed before compression, reserved
extra space inside dataset extents, an overflow region appended to the
shared file, and asynchronous independent writes (the async VOL).  This
package provides an HDF5-shaped library that exposes exactly those
integration points:

* :class:`~repro.hdf5.file.File` / :class:`~repro.hdf5.group.Group` /
  :class:`~repro.hdf5.dataset.Dataset` — the familiar object hierarchy with
  attributes and path addressing;
* :mod:`~repro.hdf5.filters` — a declared dataset's one filter, SZ under
  its real H5Z id 32017 (or none);
* :mod:`~repro.hdf5.storage` — a shared-file space allocator with explicit
  reservation (the paper's "extra space") and end-of-file append (the
  overflow region);
* :attr:`File.async_engine <repro.hdf5.file.File.async_engine>` — the
  file's background write pool, a standard ``ThreadPoolExecutor`` standing
  in for HDF5's async VOL threads (Tang et al., TPDS 2022); the write
  driver queues each partition write on it as soon as the field is
  compressed.

The on-disk container is self-describing (binary header + JSON footer) but
deliberately *not* the HDF5 binary specification.
"""

from repro.hdf5.dataset import Dataset
from repro.hdf5.datatype import dtype_from_tag, dtype_tag
from repro.hdf5.file import File
from repro.hdf5.filters import FILTER_SZ, FilterPipeline
from repro.hdf5.group import Group
from repro.hdf5.properties import DatasetCreateProps, FileAccessProps
from repro.hdf5.vol import NativeVOL

__all__ = [
    "File",
    "Group",
    "Dataset",
    "FilterPipeline",
    "FILTER_SZ",
    "dtype_tag",
    "dtype_from_tag",
    "DatasetCreateProps",
    "FileAccessProps",
    "NativeVOL",
]
