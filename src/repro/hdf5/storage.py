"""Shared-file space management.

The file layout is::

    [ header | data region ....................... | footer (JSON) ]
      magic "PHD5", version, footer_ptr, footer_len

The allocator is append-only (end-of-data watermark) with power-of-two
alignment, guarded by a lock so thread ranks can allocate concurrently.
The lock covers *only* the watermark arithmetic — never the data I/O —
so concurrent rank writes from thread ranks proceed fully in
parallel (``os.pwrite`` at distinct offsets needs no locking); the
storage stress tests assert both properties.  Two operations matter to
the paper's scheme:

* :meth:`FileStorage.allocate` — claim ``nbytes`` (possibly *reserved*
  space larger than the payload: the extra-space mechanism);
* :meth:`FileStorage.place_at` — advance the watermark past a region whose
  offsets were computed *externally* (every rank computed the same offset
  table before compressing; nobody needs to ask the allocator).

Reads/writes go straight through the underlying
:class:`~repro.mpi.sharedfile.SharedFile` with positioned I/O.
"""

from __future__ import annotations

import json
import struct
import threading

from repro.errors import FileFormatError, InvalidStateError
from repro.mpi.sharedfile import SharedFile

_MAGIC = b"PHD5"
_HEADER = struct.Struct("<4sHxxQQ")  # magic, version, footer_ptr, footer_len
HEADER_SIZE = _HEADER.size
_VERSION = 1


class FileStorage:
    """Low-level container: header, append allocator, JSON footer."""

    def __init__(self, path: str, mode: str) -> None:
        if mode not in ("w", "r", "r+"):
            raise ValueError(f"unsupported mode {mode!r}")
        self.mode = mode
        self._lock = threading.Lock()
        if mode == "w":
            self.file = SharedFile(path, "w+")
            self._end = HEADER_SIZE
            self._footer: dict | None = None
            self.file.pwrite(_HEADER.pack(_MAGIC, _VERSION, 0, 0), 0)
        else:
            self.file = SharedFile(path, "r" if mode == "r" else "r+")
            header = self.file.pread(HEADER_SIZE, 0)
            if len(header) < HEADER_SIZE:
                raise FileFormatError("file too small for header")
            magic, version, footer_ptr, footer_len = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise FileFormatError("bad magic (not a PHD5 container)")
            if version != _VERSION:
                raise FileFormatError(f"unsupported container version {version}")
            if footer_ptr == 0:
                raise FileFormatError("file was not closed cleanly (no footer)")
            blob = self.file.pread(footer_len, footer_ptr)
            if len(blob) != footer_len:
                raise FileFormatError("footer truncated")
            try:
                self._footer = json.loads(blob.decode("utf-8"))
            except ValueError as err:
                raise FileFormatError(f"footer is not valid JSON: {err}") from None
            self._end = footer_ptr

    # -- allocation ---------------------------------------------------------

    def allocate(self, nbytes: int, alignment: int = 8) -> int:
        """Claim ``nbytes`` of file space; returns the region offset."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        with self._lock:
            offset = -(-self._end // alignment) * alignment
            self._end = offset + nbytes
            return offset

    def place_at(self, offset: int, nbytes: int) -> None:
        """Record an externally computed region so the watermark clears it."""
        if offset < HEADER_SIZE:
            raise ValueError("region overlaps the header")
        if nbytes < 0:
            raise ValueError("negative region size")
        with self._lock:
            self._end = max(self._end, offset + nbytes)

    @property
    def end_of_data(self) -> int:
        """Current allocation watermark (start of any future region)."""
        return self._end

    # -- raw I/O ------------------------------------------------------------

    def write_at(self, data: bytes, offset: int) -> int:
        """Positioned write (no allocation bookkeeping)."""
        return self.file.pwrite(data, offset)

    def read_at(self, nbytes: int, offset: int) -> bytes:
        """Positioned read."""
        return self.file.pread(nbytes, offset)

    # -- footer / lifecycle --------------------------------------------------

    @property
    def footer(self) -> dict | None:
        """Parsed footer for files opened read/append; None for fresh files."""
        return self._footer

    def finalize(self, footer: dict) -> None:
        """Write the JSON footer and patch the header pointer.

        Only the watermark reservation happens under the allocation lock;
        the footer and header writes run outside it, so a late concurrent
        writer is never serialized behind footer I/O.
        """
        blob = json.dumps(footer, sort_keys=True).encode("utf-8")
        with self._lock:
            ptr = self._end
            self._end = ptr + len(blob)  # reserve the footer region
        self.file.pwrite(blob, ptr)
        self.file.pwrite(_HEADER.pack(_MAGIC, _VERSION, ptr, len(blob)), 0)
        self._footer = footer

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        self.file.close()

    @property
    def closed(self) -> bool:
        """True once closed."""
        return self.file.closed

    def require_open(self) -> None:
        """Raise if the container was closed."""
        if self.closed:
            raise InvalidStateError("file is closed")
