"""The ``repro.serve`` multi-tenant ingest daemon.

One process serves many writer clients: each connection gets a reader
thread that parses frames and enqueues work; a **single writer thread**
drains the bounded :class:`~repro.serve.queue.FairWorkQueue` round-robin
across tenants and applies every operation to the shared
:class:`~repro.serve.coalescer.Coalescer` — so all file mutation is
serialized (no locking inside the facade) while the expensive work, the
coalesced collective RealDriver runs, fans out over the configured
executor backend.

Request classes:

* **ingest** (``write`` / ``step``) — acknowledged at *enqueue*; full
  queues reject immediately with a retryable error (backpressure).
  Execution failures are accounted per session and surfaced in the next
  ``flush`` / ``close`` response.
* **control** (``open`` / ``create`` / ``flush`` / ``close``) — enqueued
  in the same per-tenant FIFO (so they order after that tenant's staged
  writes) but answered only after execution.  ``flush``/``close`` are
  *quiescent*: the writer defers them while the session still has
  pending ingest from any tenant, so a commit can never split another
  client's in-flight batch.
* **admin** (``ping`` / ``stats`` / ``shutdown``) — ``ping``/``stats``
  answer inline from the reader thread; ``shutdown`` answers first (the
  process may exit the moment the drain ends), then drains the queue,
  flushes what is complete and closes every file.

A client disconnecting mid-stream (torn frame or EOF) releases its file
handles with incomplete staged data dropped; other clients are
untouched.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np

from repro.core.config import PipelineConfig
from repro.errors import ReproError
from repro.serve import protocol
from repro.serve.coalescer import Coalescer
from repro.serve.protocol import (
    ConnectionClosedError,
    ProtocolError,
    QueueFullError,
    ServeError,
)
from repro.serve.queue import FairWorkQueue

#: Ops acknowledged at enqueue (the backpressured ingest class).
INGEST_OPS = frozenset({"write", "step"})

#: Ops answered after execution on the writer thread.
CONTROL_OPS = frozenset({"open", "create", "lookup", "flush", "close"})

#: Control ops that defer until their session's ingest queue is quiet.
QUIESCENT_OPS = frozenset({"flush", "close"})


class _Op:
    """One queued unit of work."""

    __slots__ = ("kind", "header", "payload", "conn", "done", "result")

    def __init__(self, kind: str, header: dict, payload: bytes, conn) -> None:
        self.kind = kind
        self.header = header
        self.payload = payload
        self.conn = conn
        self.done = threading.Event() if kind in CONTROL_OPS else None
        self.result: dict | None = None


class _Connection:
    """Per-client state owned by that client's reader thread."""

    def __init__(self, sock: socket.socket, tenant: str) -> None:
        self.sock = sock
        self.tenant = tenant
        self.lock = threading.Lock()  # serializes response frames
        self.fids: list[str] = []

    def send(self, header: dict, payload=None) -> None:
        with self.lock:
            protocol.send_frame(self.sock, header, payload)


class ReproServer:
    """A local-socket ingest daemon in front of the predictive engine."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: "str | None" = None,
        *,
        config: "PipelineConfig | None" = None,
        nranks: int = 4,
        strategy: str = "reorder",
        machine: str = "bebop",
        tenant_depth: int = 64,
        total_depth: int = 1024,
    ) -> None:
        self._unix_path = unix_path
        self._host = host
        self._port = port
        self.queue = FairWorkQueue(tenant_depth=tenant_depth, total_depth=total_depth)
        self.coalescer = Coalescer(
            config=config, nranks=nranks, strategy=strategy, machine=machine
        )
        self._sock: socket.socket | None = None
        self._bound_unix = False
        self._threads: list[threading.Thread] = []
        self._writer: threading.Thread | None = None
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._lock = threading.Lock()
        self._conn_count = 0
        self._active_conns = 0
        self._ops_executed = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The bound address clients connect to (host:port or unix path)."""
        if self._unix_path is not None:
            return self._unix_path
        if self._sock is None:
            raise ServeError("server is not started")
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    def start(self) -> "ReproServer":
        """Bind, spawn the writer and acceptor threads, return self."""
        if self._sock is not None:
            raise ServeError("server already started")
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self._unix_path)
            self._bound_unix = True  # the socket file is ours to unlink
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
        sock.listen(64)
        sock.settimeout(0.2)  # so the acceptor notices _stopping promptly
        self._sock = sock
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Clean shutdown: stop accepting (closing the listening socket and
        unlinking the unix socket file this server bound), drain the queue,
        flush complete datasets, drop incomplete ones, close every file
        (idempotent)."""
        with self._lock:
            first = not self._stopping.is_set()
            self._stopping.set()
            if first and self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                if self._bound_unix:
                    try:
                        os.unlink(self._unix_path)
                    except FileNotFoundError:
                        pass
        if first:
            self.queue.close()
            if self._writer is not None:
                self._writer.join(timeout)
        self._drained.wait(timeout)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (for the console ``repro serve``)."""
        self._drained.wait()

    def stats(self) -> dict:
        with self._lock:
            out = {
                "connections": self._active_conns,
                "connections_total": self._conn_count,
                "ops_executed": self._ops_executed,
            }
        out["queue"] = self.queue.stats().to_json()
        out["files"] = self.coalescer.stats()
        return out

    # -- acceptor / reader side ----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn_sock, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                self._conn_count += 1
                self._active_conns += 1
                tenant = f"conn{self._conn_count}"
            conn_sock.settimeout(None)
            thread = threading.Thread(
                target=self._client_loop,
                args=(_Connection(conn_sock, tenant),),
                name=f"repro-serve-{tenant}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _client_loop(self, conn: _Connection) -> None:
        try:
            while True:
                header, payload = protocol.recv_frame(conn.sock)
                if not self._dispatch(conn, header, payload):
                    break
        except (ConnectionClosedError, ProtocolError, OSError):
            # Torn frame or vanished peer: drop the connection, keep the
            # daemon serving.  The release below cleans up its handles.
            pass
        finally:
            if conn.fids and not self._stopping.is_set():
                release = _Op("release", {"fids": list(conn.fids)}, b"", conn)
                try:
                    self.queue.put(conn.tenant, release, force=True)
                except ServeError:
                    pass  # shutdown drain closes everything anyway
            try:
                conn.sock.close()
            except OSError:
                pass
            with self._lock:
                self._active_conns -= 1

    def _dispatch(self, conn: _Connection, header: dict, payload: bytes) -> bool:
        """Handle one request frame; False ends the connection loop."""
        op = header.get("op")
        rid = header.get("rid")
        if op == "hello":
            if header.get("tenant"):
                conn.tenant = str(header["tenant"])
            conn.send({
                "ok": True, "rid": rid,
                "protocol": protocol.PROTOCOL_VERSION, "tenant": conn.tenant,
            })
            return True
        if op == "ping":
            conn.send({"ok": True, "rid": rid})
            return True
        if op == "stats":
            conn.send({"ok": True, "rid": rid, "stats": self.stats()})
            return True
        if op == "shutdown":
            # Reply before tearing down: once stop() returns the process
            # may exit, and the client must not see a dropped connection.
            conn.send({"ok": True, "rid": rid, "draining": True})
            self.stop()
            return False
        if op in INGEST_OPS:
            return self._enqueue_ingest(conn, op, header, payload, rid)
        if op in CONTROL_OPS:
            return self._enqueue_control(conn, op, header, payload, rid)
        conn.send(protocol.error_response("ProtocolError", f"unknown op {op!r}"))
        return True

    def _enqueue_ingest(self, conn, op, header, payload, rid) -> bool:
        if self._stopping.is_set():
            conn.send(protocol.error_response(
                "ServeError", "server is shutting down", retry=False
            ) | {"rid": rid})
            return True
        item = _Op(op, header, payload, conn)
        try:
            self.queue.put(conn.tenant, item)
        except QueueFullError as exc:
            conn.send(protocol.error_response(
                "QueueFullError", str(exc), retry=True
            ) | {"rid": rid})
            return True
        except ServeError as exc:
            conn.send(protocol.error_response(
                type(exc).__name__, str(exc)
            ) | {"rid": rid})
            return True
        fid = header.get("fid")
        if fid is not None:
            self._adjust_pending(fid, +1)
        conn.send({"ok": True, "rid": rid, "queued": True})
        return True

    def _enqueue_control(self, conn, op, header, payload, rid) -> bool:
        item = _Op(op, header, payload, conn)
        try:
            self.queue.put(conn.tenant, item, force=True)
        except ServeError as exc:
            conn.send(protocol.error_response(
                type(exc).__name__, str(exc)
            ) | {"rid": rid})
            return True
        item.done.wait()
        conn.send(dict(item.result) | {"rid": rid})
        return True

    def _adjust_pending(self, fid: str, delta: int) -> None:
        """Track per-session in-flight ingest (commit quiescence)."""
        try:
            session = self.coalescer.session(fid)
        except ReproError:
            return  # unknown fid: execution will report it
        with self._lock:
            session.pending_ingest += delta

    # -- writer side ---------------------------------------------------------

    def _writer_loop(self) -> None:
        try:
            while True:
                got = self.queue.get(timeout=0.5)
                if got is None:
                    if self._stopping.is_set():
                        break
                    continue
                tenant, item = got
                if item.kind in QUIESCENT_OPS and self._must_defer(item):
                    self.queue.requeue(tenant, item)
                    continue
                self._execute(item)
        finally:
            errors = self.coalescer.close_all()
            if errors:  # pragma: no cover - depends on failing teardown
                for line in errors:
                    print(f"repro.serve shutdown: {line}")
            self._drained.set()

    def _must_defer(self, item: _Op) -> bool:
        """True when a flush/close must wait for in-queue ingest to land."""
        fid = item.header.get("fid")
        if fid is None:
            return False
        try:
            session = self.coalescer.session(fid)
        except ReproError:
            return False
        with self._lock:
            return session.pending_ingest > 0

    def _execute(self, item: _Op) -> None:
        with self._lock:
            self._ops_executed += 1
        try:
            result = self._apply(item)
        except ReproError as exc:
            result = protocol.error_response(type(exc).__name__, str(exc))
            if item.done is None:  # async ingest: account for the commit
                self._record_async_error(item, exc)
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            result = protocol.error_response(type(exc).__name__, str(exc))
            if item.done is None:
                self._record_async_error(item, exc)
        if item.done is not None:
            item.result = result
            item.done.set()

    def _record_async_error(self, item: _Op, exc: Exception) -> None:
        fid = item.header.get("fid")
        if fid is None:
            return
        try:
            self.coalescer.session(fid).record_error(item.kind, exc)
        except ReproError:
            pass

    def _apply(self, item: _Op) -> dict:
        header = item.header
        fid = header.get("fid")
        if item.kind in INGEST_OPS and fid is not None:
            self._adjust_pending(fid, -1)
        if item.kind == "open":
            new_fid = self.coalescer.open(
                header["path"],
                header.get("mode", "w"),
                strategy=header.get("strategy"),
                nranks=header.get("nranks"),
                machine=header.get("machine"),
                config=header.get("config"),
            )
            item.conn.fids.append(new_fid)
            return {"ok": True, "fid": new_fid}
        if item.kind == "create":
            self.coalescer.create_dataset(
                fid,
                header["name"],
                tuple(header["shape"]),
                header["dtype"],
                time_axis=bool(header.get("time_axis", False)),
                **header.get("settings", {}),
            )
            return {"ok": True}
        if item.kind == "lookup":
            return {"ok": True} | self.coalescer.lookup(fid, header["name"])
        if item.kind == "write":
            block = protocol.unpack_array(header, item.payload)
            self.coalescer.stage_block(fid, header["name"], header["regions"], block)
            return {"ok": True}
        if item.kind == "step":
            fields: dict = {}
            offset = 0
            view = memoryview(item.payload)
            for spec in header["fields"]:
                n = int(np.prod(spec["shape"], dtype=np.int64)) * np.dtype(spec["dtype"]).itemsize
                fields[spec["name"]] = protocol.unpack_array(
                    spec, view[offset:offset + n]
                )
                offset += n
            self.coalescer.append_step(fid, fields)
            return {"ok": True}
        if item.kind == "flush":
            return {"ok": True} | self.coalescer.flush(fid)
        if item.kind == "close":
            result = self.coalescer.close(
                fid, drop_incomplete=bool(header.get("drop_incomplete", False))
            )
            if fid in item.conn.fids:
                item.conn.fids.remove(fid)
            return {"ok": True} | result
        if item.kind == "release":
            self.coalescer.release_all(header["fids"])
            return {"ok": True}
        raise ServeError(f"unhandled op kind {item.kind!r}")
