"""Dynamically registered filter pipeline (H5Z analogue).

HDF5 filters transform chunk buffers on the way to/from storage and are
identified by numeric ids; H5Z-SZ registers SZ under id 32017 and H5Z-ZFP
uses 32013 — we keep the same ids so configurations read naturally.

A :class:`FilterPipeline` is an ordered list of :class:`FilterSpec`; apply
runs front-to-back on write, invert_many back-to-front on read, over a
batch of chunks at once.  Array
filters (SZ/ZFP) must be first in the pipeline since they consume the
ndarray; byte filters (shuffle/deflate) operate on the byte stream after.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.compression.codec import get_codec
from repro.errors import FilterError
from repro.hdf5.datatype import dtype_from_tag, dtype_tag

#: HDF5-registered ids (matching the real registry where one exists).
FILTER_DEFLATE = 1
FILTER_SHUFFLE = 2
FILTER_SZ = 32017
FILTER_ZFP = 32013


@dataclass(frozen=True)
class FilterSpec:
    """One pipeline stage: a registered filter id plus its options."""

    filter_id: int
    options: dict = field(default_factory=dict)

    def to_json(self) -> list:
        """Footer representation."""
        return [self.filter_id, dict(self.options)]

    @classmethod
    def from_json(cls, blob: list) -> "FilterSpec":
        return cls(filter_id=int(blob[0]), options=dict(blob[1]))


class _FilterImpl:
    """Registered behaviour for one filter id."""

    def __init__(
        self,
        name: str,
        kind: str,  # "array" (ndarray -> bytes) or "bytes" (bytes -> bytes)
        apply: Callable,
        invert: Callable,
    ) -> None:
        self.name = name
        self.kind = kind
        self.apply = apply
        self.invert = invert


_REGISTRY: dict[int, _FilterImpl] = {}


def register_filter(
    filter_id: int, name: str, kind: str, apply: Callable, invert: Callable
) -> None:
    """Register a filter implementation under a numeric id.

    A byte filter inverts one payload, ``invert(payload, options)``; an
    array filter inverts a batch, ``invert(payloads, options)`` returning
    one array per payload, so a codec can share work across a read.
    """
    if kind not in ("array", "bytes"):
        raise FilterError("kind must be 'array' or 'bytes'")
    _REGISTRY[filter_id] = _FilterImpl(name, kind, apply, invert)


def available_filters() -> dict[int, str]:
    """Mapping of registered ids to names."""
    return {fid: impl.name for fid, impl in sorted(_REGISTRY.items())}


def _lookup(filter_id: int) -> _FilterImpl:
    try:
        return _REGISTRY[filter_id]
    except KeyError:
        raise FilterError(f"unknown filter id {filter_id}") from None


# -- built-in byte filters ---------------------------------------------------


def _deflate_apply(payload: bytes, options: dict) -> bytes:
    return zlib.compress(payload, options.get("level", 4))


def _deflate_invert(payload: bytes, options: dict) -> bytes:
    return zlib.decompress(payload)


def _shuffle_apply(payload: bytes, options: dict) -> bytes:
    size = options.get("itemsize", 4)
    arr = np.frombuffer(payload, dtype=np.uint8)
    if size <= 1 or arr.size % size:
        return payload
    return arr.reshape(-1, size).T.copy().tobytes()


def _shuffle_invert(payload: bytes, options: dict) -> bytes:
    size = options.get("itemsize", 4)
    arr = np.frombuffer(payload, dtype=np.uint8)
    if size <= 1 or arr.size % size:
        return payload
    return arr.reshape(size, -1).T.copy().tobytes()


# -- built-in array filters (lossy codecs) -----------------------------------


def _sz_apply(data: np.ndarray, options: dict) -> bytes:
    codec = get_codec("sz", **options)
    return codec.compress(data)


def _sz_invert(payloads: list[bytes], options: dict) -> list[np.ndarray]:
    return get_codec("sz", **options).decompress_many(payloads)


def _zfp_apply(data: np.ndarray, options: dict) -> bytes:
    codec = get_codec("zfp", **options)
    return codec.compress(data)


def _zfp_invert(payloads: list[bytes], options: dict) -> list[np.ndarray]:
    return get_codec("zfp", **options).decompress_many(payloads)


register_filter(FILTER_DEFLATE, "deflate", "bytes", _deflate_apply, _deflate_invert)
register_filter(FILTER_SHUFFLE, "shuffle", "bytes", _shuffle_apply, _shuffle_invert)
register_filter(FILTER_SZ, "sz", "array", _sz_apply, _sz_invert)
register_filter(FILTER_ZFP, "zfp", "array", _zfp_apply, _zfp_invert)


class FilterPipeline:
    """Ordered filter chain applied to chunk buffers."""

    def __init__(self, specs: tuple[FilterSpec, ...] | list[FilterSpec] = ()) -> None:
        self.specs = tuple(specs)
        for i, spec in enumerate(self.specs):
            impl = _lookup(spec.filter_id)
            if impl.kind == "array" and i != 0:
                raise FilterError(
                    f"array filter {impl.name!r} must be first in the pipeline"
                )

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def has_array_filter(self) -> bool:
        """True if the first stage consumes the ndarray itself."""
        return bool(self.specs) and _lookup(self.specs[0].filter_id).kind == "array"

    def find(self, filter_id: int) -> FilterSpec | None:
        """The first spec registered under ``filter_id``, or None.

        The certification engine, the facade, and the inspector all
        recover a dataset's declared error bound this way — one lookup,
        not three hand-rolled loops.
        """
        for spec in self.specs:
            if spec.filter_id == filter_id:
                return spec
        return None

    def apply(self, data: np.ndarray) -> bytes:
        """Run the pipeline forward: ndarray -> stored chunk bytes."""
        specs = list(self.specs)
        if self.has_array_filter:
            spec = specs.pop(0)
            payload = _lookup(spec.filter_id).apply(data, spec.options)
        else:
            payload = np.ascontiguousarray(data).tobytes()
        for spec in specs:
            payload = _lookup(spec.filter_id).apply(payload, spec.options)
        return payload

    def invert_many(
        self,
        payloads: Sequence[bytes],
        shapes: Sequence[tuple[int, ...] | None],
        dtype_str: str,
    ) -> list[np.ndarray]:
        """Run the pipeline backward over stored chunks: bytes -> ndarrays.

        The byte filters undo each payload on its own; the array filter
        takes them all in one call (SZ decodes their Huffman stages in one
        lane pass).  A ``None`` shape skips that chunk's cross-check and
        trusts the array filter's self-describing stream (used when a
        declared partition carries no region metadata); byte-only
        pipelines always need the shape to reconstruct the array.
        """
        specs = list(self.specs)
        array_spec = specs.pop(0) if self.has_array_filter else None
        for spec in reversed(specs):
            impl = _lookup(spec.filter_id)
            payloads = [impl.invert(payload, spec.options) for payload in payloads]
        if array_spec is not None:
            arrays = list(_lookup(array_spec.filter_id).invert(payloads, array_spec.options))
            if len(arrays) != len(payloads):
                raise FilterError(
                    f"array filter returned {len(arrays)} arrays for {len(payloads)} payloads"
                )
            for data, shape in zip(arrays, shapes):
                if shape is not None and tuple(data.shape) != tuple(shape):
                    raise FilterError("array filter returned wrong shape")
            return arrays
        dt = dtype_from_tag(dtype_str)
        arrays = []
        for payload, shape in zip(payloads, shapes):
            if shape is None:
                raise FilterError("byte-only pipeline cannot infer the array shape")
            if len(payload) != int(np.prod(shape)) * dt.itemsize:
                raise FilterError("chunk byte length mismatch")
            arrays.append(np.frombuffer(payload, dtype=dt).reshape(shape).copy())
        return arrays

    def to_json(self) -> list:
        """Footer representation."""
        return [s.to_json() for s in self.specs]

    @classmethod
    def from_json(cls, blob: list) -> "FilterPipeline":
        return cls(tuple(FilterSpec.from_json(b) for b in blob))
