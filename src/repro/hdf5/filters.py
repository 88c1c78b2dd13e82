"""A declared dataset's filter (H5Z analogue): SZ, or nothing.

HDF5 filters transform chunk buffers on the way to and from storage and are
identified by numeric ids.  H5Z-SZ registers SZ under id 32017, and this
library keeps that id, so a creation property list reads as it would in
HDF5: ``DatasetCreateProps(chunks=..., filters=((FILTER_SZ, options),))``.

SZ is the one codec the paper connects to HDF5, so a :class:`FilterPipeline`
holds SZ's options or none.  This module is the only code that parses the
``(id, options)`` entries, from a creation property list or a file footer,
and the only code that writes the footer form, ``[[32017, {...}]]`` or
``[]``.  Any other id, a second entry, or options SZ refuses raise
:class:`~repro.errors.FilterError`; a malformed footer entry raises
:class:`~repro.errors.FileFormatError`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.compression.sz import SZCompressor
from repro.errors import CompressionError, FileFormatError, FilterError

#: H5Z-SZ's registered filter id.
FILTER_SZ = 32017


class FilterPipeline:
    """A declared dataset's filter: SZ with :attr:`sz_options`, or empty
    (``sz_options is None``; false in a boolean context)."""

    def __init__(self, entries: Sequence[tuple[int, dict]] = ()) -> None:
        ids = [fid for fid, _ in entries]
        if ids and ids != [FILTER_SZ]:
            raise FilterError(f"unsupported filter ids {ids}; the one filter is SZ ({FILTER_SZ})")
        self.sz_options: dict | None = dict(entries[0][1]) if entries else None
        self._codec: SZCompressor | None = None
        if self.sz_options is not None:
            try:
                self._codec = SZCompressor(**self.sz_options)
            except (TypeError, ValueError, CompressionError) as exc:
                raise FilterError(f"invalid SZ options {self.sz_options}: {exc}") from None

    def __bool__(self) -> bool:
        return self.sz_options is not None

    def invert_many(
        self, payloads: Sequence[bytes], shapes: Sequence[tuple[int, ...] | None]
    ) -> list[np.ndarray]:
        """Decode stored chunks in one SZ call (one Huffman lane pass).

        A ``None`` shape skips that chunk's cross-check and trusts the
        self-describing stream (used when a declared partition carries no
        region metadata).
        """
        arrays = self._codec.decompress_many(payloads)
        if len(arrays) != len(payloads):
            raise FilterError(f"SZ returned {len(arrays)} arrays for {len(payloads)} payloads")
        for data, shape in zip(arrays, shapes):
            if shape is not None and tuple(data.shape) != tuple(shape):
                raise FilterError("SZ returned the wrong shape")
        return arrays

    def to_json(self) -> list:
        """Footer representation."""
        return [] if self.sz_options is None else [[FILTER_SZ, dict(self.sz_options)]]

    @classmethod
    def from_json(cls, blob: object) -> "FilterPipeline":
        """Parse a footer's ``filters``, which comes from outside the program."""
        if not isinstance(blob, list) or not all(
            isinstance(e, list) and len(e) == 2 and type(e[0]) is int and isinstance(e[1], dict)
            for e in blob
        ):
            raise FileFormatError(f"malformed filters entry in footer: {blob!r}")
        return cls(blob)
