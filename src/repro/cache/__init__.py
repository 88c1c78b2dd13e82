"""Read-side caching: the decoded-partition LRU.

See :mod:`repro.cache.lru` for the design; the engine's declared-layout
read path (:meth:`repro.hdf5.dataset.Dataset.read` and its region reads)
consults the process-wide cache returned by :func:`get_cache`, and
operators size it with :func:`configure` or the ``REPRO_CACHE_BYTES``
environment variable (``0`` disables).
"""

from repro.cache.lru import (
    DEFAULT_MAX_BYTES,
    ENV_MAX_BYTES,
    CacheStats,
    DecodedPartitionCache,
    cache_stats,
    configure,
    get_cache,
)

__all__ = [
    "DEFAULT_MAX_BYTES",
    "ENV_MAX_BYTES",
    "CacheStats",
    "DecodedPartitionCache",
    "cache_stats",
    "configure",
    "get_cache",
]
