"""Codec abstraction and registry.

The HDF5-like filter pipeline (:mod:`repro.hdf5.filters`) looks codecs up by
name, mirroring HDF5's dynamically loaded filters.  Codecs are stateless with
respect to the data they compress: all tuning lives in constructor arguments,
so one instance can be shared across ranks/threads — and, because
:meth:`Codec.compress` is a pure function of (codec config, array), the
per-field fan-out helpers below produce byte-identical streams under any
:mod:`repro.exec` backend.  The compression kernels bottom out in NumPy
ufuncs and zlib, both of which release the GIL, so the thread backend sees
real parallelism.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import CompressionError
from repro.exec import resolve_executor


class Codec(ABC):
    """Interface implemented by every compressor in the library."""

    #: short registry name, e.g. ``"sz"``; set by subclasses.
    name: str = "abstract"

    @abstractmethod
    def compress(self, data: np.ndarray) -> bytes:
        """Compress an ndarray into a self-describing byte stream."""

    @abstractmethod
    def decompress(self, stream: bytes) -> np.ndarray:
        """Reconstruct the array (shape and dtype restored) from a stream."""

    def decompress_many(self, streams: Sequence[bytes]) -> list[np.ndarray]:
        """Reconstruct several streams, in order: one after another here; a
        codec that can share work across streams overrides this."""
        return [self.decompress(stream) for stream in streams]

    def max_error(self) -> float | None:
        """Point-wise absolute error guarantee, or None if unbounded."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: dict[str, Callable[..., Codec]] = {}


def register_codec(name: str) -> Callable[[type], type]:
    """Class decorator registering a codec factory under ``name``."""

    def deco(cls: type) -> type:
        if not issubclass(cls, Codec):
            raise TypeError(f"{cls!r} is not a Codec subclass")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def get_codec(name: str, **kwargs: object) -> Codec:
    """Instantiate the codec registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Per-field fan-out (the drivers' compression hot loop)
# ---------------------------------------------------------------------------

def _compress_cell(cell: "tuple[Codec, np.ndarray]") -> bytes:
    """One (codec, array) compression cell."""
    codec, data = cell
    return codec.compress(data)


def compress_fields(
    fields: Mapping[str, np.ndarray],
    codecs: Mapping[str, Codec],
    order: Sequence[str] | None = None,
    executor=None,
) -> dict[str, bytes]:
    """Compress every field through its codec; name → stream.

    ``order`` fixes the cell order (the drivers pass their Algorithm 1
    order); results are keyed by name so callers consume them in any
    order.  Streams are byte-identical across executor backends — each
    cell is a pure function — so parallelizing this loop can never change
    what lands in the file.
    """
    names = list(order) if order is not None else list(fields)
    missing = [n for n in names if n not in fields or n not in codecs]
    if missing:
        raise CompressionError(f"fields without data or codec: {missing}")
    ex = resolve_executor(executor)
    streams = ex.map_cells(_compress_cell, [(codecs[n], fields[n]) for n in names])
    return dict(zip(names, streams))
