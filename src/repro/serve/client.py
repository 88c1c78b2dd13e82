"""Client side of the ingest daemon: ``repro.open(path, server=...)``.

:class:`RemoteFile` mirrors the write surface of the local facade —
``create_dataset``, ``ds[region] = arr``, ``append_step``, ``flush``,
``close`` — but every call becomes a wire request to a running
``repro serve`` daemon, where it is staged into the shared file and
coalesced with other clients' compatible requests into single collective
RealDriver runs.

Backpressure is cooperative: staged writes acknowledged with a retryable
``QueueFullError`` are retried with exponential backoff up to
``retry_seconds``; a persistent full queue then surfaces as
:class:`~repro.serve.protocol.QueueFullError` to the caller.  Because
ingest acks mean *queued*, not *landed*, execution errors surface on the
next :meth:`RemoteFile.flush` / :meth:`RemoteFile.close` — both raise
:class:`~repro.serve.protocol.RemoteOpError` listing everything that
failed since the previous commit point (per-batch error accounting).

Reads are deliberately absent: a served file is a normal PHD5 container;
read it with a plain local ``repro.open(path)`` once it has flushed.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

import numpy as np

from repro.api.dataset import resolve_extent, select_block
from repro.api.settings import DatasetSettings
from repro.core.config import PipelineConfig
from repro.errors import ConfigError, ReadOnlyError
from repro.serve import protocol
from repro.serve.coalescer import config_to_wire
from repro.serve.protocol import QueueFullError, ServeError


def _connect(address: str, timeout: "float | None") -> socket.socket:
    """Dial ``host:port``, ``unix:<path>``, or a bare unix socket path."""
    path = address.removeprefix("unix:")
    if path == address and ":" in address and not address.startswith("/"):
        host, _, port = address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
    sock.settimeout(None)
    return sock


class ServeClient:
    """One connection to a daemon: framing, retries, request/response."""

    def __init__(
        self,
        address: str,
        *,
        tenant: "str | None" = None,
        timeout: "float | None" = 30.0,
        retry_seconds: float = 30.0,
    ) -> None:
        self.address = address
        self.retry_seconds = float(retry_seconds)
        self._sock = _connect(address, timeout)
        self._lock = threading.Lock()
        self._rid = itertools.count()
        hello = self.request({"op": "hello", "tenant": tenant})
        self.tenant: str = hello["tenant"]
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            self.close()
            raise ServeError(
                f"server speaks protocol {hello.get('protocol')}, "
                f"client {protocol.PROTOCOL_VERSION}"
            )

    def request(self, header: dict, payload=None, *, retry: bool = False) -> dict:
        """One request/response round trip; retryable rejections back off."""
        deadline = time.monotonic() + self.retry_seconds
        delay = 0.001
        while True:
            with self._lock:
                header = dict(header, rid=next(self._rid))
                protocol.send_frame(self._sock, header, payload)
                response, _ = protocol.recv_frame(self._sock)
            if response.get("ok"):
                return response
            if retry and response.get("retry") and time.monotonic() < deadline:
                time.sleep(delay)
                delay = min(delay * 2.0, 0.1)
                continue
            return protocol.raise_for_response(response)

    def ping(self) -> None:
        self.request({"op": "ping"})

    def stats(self) -> dict:
        """Server-side queue/files/connection counters."""
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the daemon to drain, close every file, and exit."""
        self.request({"op": "shutdown"})
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_remote(
    address: str,
    path: str,
    mode: str = "w",
    *,
    config: "PipelineConfig | None" = None,
    nranks: "int | None" = None,
    strategy: "str | None" = None,
    machine: "str | None" = None,
    tenant: "str | None" = None,
    client: "ServeClient | None" = None,
) -> "RemoteFile":
    """Open ``path`` for writing through the daemon at ``address``.

    This is what ``repro.open(path, mode, server=address)`` calls; the
    keyword surface matches the local facade so switching a writer to the
    daemon is a one-argument change.
    """
    if mode not in ("w", "r+"):
        raise ReadOnlyError(
            f"server= routes writes; open mode {mode!r} locally instead "
            "(served files are ordinary PHD5 containers once flushed)"
        )
    owns = client is None
    if client is None:
        client = ServeClient(address, tenant=tenant)
    response = client.request({
        "op": "open",
        "path": path,
        "mode": mode,
        "strategy": strategy,
        "nranks": nranks,
        "machine": machine,
        "config": config_to_wire(config),
    })
    return RemoteFile(client, response["fid"], path, mode, owns_client=owns)


class RemoteDataset:
    """A write handle on one dataset of a served file."""

    def __init__(
        self, file: "RemoteFile", name: str, shape, dtype, time_axis: bool
    ) -> None:
        self._file = file
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.time_axis = bool(time_axis)

    def __setitem__(self, key, value) -> None:
        if self.time_axis:
            raise ServeError(
                f"{self.name}: served time-axis datasets stream whole steps; "
                "use RemoteFile.append_step"
            )
        regions, block = select_block(self.name, key, self.shape, self.dtype, value)
        meta, payload = protocol.pack_array(block)
        self._file._client.request(
            {
                "op": "write",
                "fid": self._file._fid,
                "name": self.name,
                "regions": regions,
            }
            | meta,
            payload,
            retry=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "time-axis " if self.time_axis else ""
        return (
            f"<repro.serve.RemoteDataset {self.name!r} {kind}"
            f"shape={self.shape} dtype={self.dtype}>"
        )


class RemoteFile:
    """A served file handle: the facade's write surface over the wire."""

    def __init__(
        self, client: ServeClient, fid: str, path: str, mode: str,
        owns_client: bool = True,
    ) -> None:
        self._client = client
        self._fid = fid
        self.path = path
        self.mode = mode
        self._owns_client = owns_client
        self._datasets: dict[str, RemoteDataset] = {}
        self._closed = False

    def create_dataset(
        self,
        name: str,
        shape: "tuple[int, ...] | None" = None,
        dtype=None,
        data=None,
        *,
        maxshape: "tuple | None" = None,
        **settings,
    ) -> RemoteDataset:
        """Create a dataset on the served file (same keywords as the local
        facade: ``error_bound``, ``strategy``, ``nranks``, ...)."""
        supported = list(DatasetSettings.__dataclass_fields__)
        unknown = sorted(set(settings) - set(supported))
        if unknown:
            raise ConfigError(
                f"unsupported dataset setting(s) {unknown} over the wire; "
                f"supported: {supported}"
            )
        shape, dtype, time_axis = resolve_extent(name, shape, dtype, data, maxshape)
        # Validate eagerly client-side so errors point here, not at flush.
        DatasetSettings(**settings)
        self._client.request({
            "op": "create",
            "fid": self._fid,
            "name": name,
            "shape": list(shape),
            "dtype": dtype.str,
            "time_axis": time_axis,
            "settings": {k: v for k, v in settings.items() if v is not None},
        })
        ds = RemoteDataset(self, name, shape, dtype, time_axis)
        self._datasets[name.lstrip("/")] = ds
        if data is not None:
            ds[...] = data
        return ds

    def __getitem__(self, name: str) -> RemoteDataset:
        """A write handle on a dataset of the served file — including one
        another client created on the same shared session."""
        ds = self._datasets.get(name.lstrip("/"))
        if ds is None:
            meta = self._client.request(
                {"op": "lookup", "fid": self._fid, "name": name}
            )
            ds = RemoteDataset(
                self, name, meta["shape"], meta["dtype"], meta["time_axis"]
            )
            self._datasets[name.lstrip("/")] = ds
        return ds

    def append_step(self, fields) -> None:
        """Stream one snapshot of every time-axis dataset as a new step."""
        specs: list[dict] = []
        chunks: list[bytes] = []
        for name in sorted(fields):
            arr = np.ascontiguousarray(np.asarray(fields[name]))
            meta, payload = protocol.pack_array(arr)
            specs.append({"name": name} | meta)
            chunks.append(bytes(payload))
        self._client.request(
            {"op": "step", "fid": self._fid, "fields": specs},
            b"".join(chunks),
            retry=True,
        )

    def flush(self) -> "list[str]":
        """Commit: coalesce and land every complete staged dataset (all
        clients' blocks included).  Returns the dataset paths that landed;
        raises :class:`RemoteOpError` if staged ingest failed since the
        last commit."""
        response = self._client.request({"op": "flush", "fid": self._fid})
        self._raise_batch_errors("flush", response)
        return response.get("landed", [])

    def close(self, drop_incomplete: bool = False) -> None:
        """Release this handle (the last handle closes the file on disk)."""
        if self._closed:
            return
        response = self._client.request({
            "op": "close", "fid": self._fid,
            "drop_incomplete": bool(drop_incomplete),
        })
        self._closed = True
        if self._owns_client:
            self._client.close()
        self._raise_batch_errors("close", response)

    def _raise_batch_errors(self, op: str, response: dict) -> None:
        errors = response.get("errors") or []
        if errors:
            raise protocol.RemoteOpError(
                "BatchIngestError",
                f"{op}: {len(errors)} staged request(s) failed: "
                + "; ".join(errors),
            )

    def __enter__(self) -> "RemoteFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else self.mode
        return (
            f"<repro.serve.RemoteFile {self.path!r} via "
            f"{self._client.address!r} ({state})>"
        )
