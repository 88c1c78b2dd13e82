"""Tests for the repro.serve ingest daemon: protocol framing, the fair
work queue, and end-to-end multi-client daemon behaviour (coalescing,
backpressure, disconnects, clean shutdown, batch error surfacing)."""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError, HDF5Error, ShapeMismatchError
from repro.serve import protocol
from repro.serve.client import ServeClient, open_remote
from repro.serve.daemon import ReproServer
from repro.serve.protocol import (
    ConnectionClosedError,
    ProtocolError,
    QueueFullError,
    RemoteOpError,
    ServeError,
)
from repro.serve.queue import FairWorkQueue
from repro.verify.certify import certify


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------

def _sock_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestProtocol:
    def test_frame_round_trip_with_payload(self):
        a, b = _sock_pair()
        try:
            arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
            meta, payload = protocol.pack_array(arr)
            protocol.send_frame(a, {"op": "write", "name": "x"} | meta, payload)
            header, raw = protocol.recv_frame(b)
            assert header["op"] == "write"
            got = protocol.unpack_array(header, raw)
            np.testing.assert_array_equal(got, arr)
        finally:
            a.close()
            b.close()

    def test_frame_round_trip_without_payload(self):
        a, b = _sock_pair()
        try:
            protocol.send_frame(a, {"op": "ping"})
            header, raw = protocol.recv_frame(b)
            assert header == {"op": "ping", "nbytes": 0}
            assert raw == b""
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_raises_connection_closed(self):
        a, b = _sock_pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosedError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_torn_frame_raises_connection_closed(self):
        a, b = _sock_pair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")  # promises 16, sends 7
            a.close()
            with pytest.raises(ConnectionClosedError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_non_json_header_raises_protocol_error(self):
        a, b = _sock_pair()
        try:
            bad = b"not json at all"
            a.sendall(len(bad).to_bytes(4, "big") + bad)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_implausible_header_length_raises(self):
        a, b = _sock_pair()
        try:
            a.sendall((protocol.MAX_HEADER_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_unpack_array_length_mismatch(self):
        with pytest.raises(ProtocolError):
            protocol.unpack_array({"dtype": "<f4", "shape": [4]}, b"\x00" * 8)

    def test_raise_for_response_maps_retry_and_kind(self):
        with pytest.raises(QueueFullError):
            protocol.raise_for_response(
                protocol.error_response("QueueFullError", "full", retry=True)
            )
        with pytest.raises(RemoteOpError) as exc:
            protocol.raise_for_response(
                protocol.error_response("UnknownFile", "no fid")
            )
        assert exc.value.kind == "UnknownFile"
        ok = {"ok": True, "fid": "f0"}
        assert protocol.raise_for_response(ok) is ok


# ---------------------------------------------------------------------------
# Fair work queue
# ---------------------------------------------------------------------------

class TestFairWorkQueue:
    def test_round_robin_across_tenants(self):
        q = FairWorkQueue(tenant_depth=16, total_depth=64)
        for i in range(3):
            q.put("a", f"a{i}")
        for i in range(3):
            q.put("b", f"b{i}")
        drained = [q.get(timeout=0.1)[1] for _ in range(6)]
        # One item per tenant per turn: a flooding tenant cannot starve b.
        assert drained[:4] in (["a0", "b0", "a1", "b1"], ["b0", "a0", "b1", "a1"])

    def test_tenant_depth_rejects_only_that_tenant(self):
        q = FairWorkQueue(tenant_depth=2, total_depth=64)
        q.put("a", 1)
        q.put("a", 2)
        with pytest.raises(QueueFullError):
            q.put("a", 3)
        q.put("b", 1)  # other tenants unaffected
        assert q.stats().rejected == 1

    def test_total_depth_rejects_everyone_but_force_bypasses(self):
        q = FairWorkQueue(tenant_depth=64, total_depth=2)
        q.put("a", 1)
        q.put("b", 1)
        with pytest.raises(QueueFullError):
            q.put("c", 1)
        q.put("c", "control", force=True)  # flush/close must never wedge
        assert len(q) == 3

    def test_get_timeout_returns_none(self):
        q = FairWorkQueue()
        t0 = time.monotonic()
        assert q.get(timeout=0.05) is None
        assert time.monotonic() - t0 < 1.0

    def test_close_drains_then_none(self):
        q = FairWorkQueue()
        q.put("a", 1)
        q.close()
        with pytest.raises(Exception):
            q.put("a", 2)
        assert q.get(timeout=0.1) == ("a", 1)
        assert q.get(timeout=0.1) is None


# ---------------------------------------------------------------------------
# End-to-end daemon behaviour
# ---------------------------------------------------------------------------

class _fake_server:
    """A minimal wire-level stand-in: answers hello, then either rejects
    every request as retryably full or just echoes ok (for driving client
    edge cases a healthy daemon never exhibits)."""

    def __init__(self, always_full: bool = False,
                 protocol_version: int = protocol.PROTOCOL_VERSION) -> None:
        self._always_full = always_full
        self._version = protocol_version

    def __enter__(self) -> str:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        host, port = self._sock.getsockname()
        threading.Thread(target=self._serve, daemon=True).start()
        return f"{host}:{port}"

    def _serve(self) -> None:
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        try:
            while True:
                header, _payload = protocol.recv_frame(conn)
                rid = header.get("rid")
                if header.get("op") == "hello":
                    protocol.send_frame(conn, {
                        "ok": True, "rid": rid,
                        "protocol": self._version, "tenant": "fake",
                    })
                elif self._always_full:
                    protocol.send_frame(conn, protocol.error_response(
                        "QueueFullError", "full", retry=True) | {"rid": rid})
                else:
                    protocol.send_frame(conn, {"ok": True, "rid": rid})
        except (ConnectionClosedError, ProtocolError, OSError):
            pass
        finally:
            conn.close()

    def __exit__(self, *exc) -> None:
        self._sock.close()


@pytest.fixture
def server():
    srv = ReproServer(port=0).start()
    yield srv
    srv.stop()


def _field(shape=(12, 12, 12), seed=3):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, 1.0, shape) * 0.05).astype(np.float32)


class TestServedWrites:
    def test_concurrent_clients_coalesce_into_one_flush(self, server, tmp_path):
        path = str(tmp_path / "multi.phd5")
        arrs = {f"fields/f{i}": _field(seed=i) for i in range(3)}
        control = open_remote(server.address, path, "w", tenant="ctl")

        def write_one(name, arr):
            f = open_remote(server.address, path, "w", tenant=name)
            ds = f.create_dataset(name, arr.shape, arr.dtype, error_bound=1e-3)
            ds[...] = arr
            f.close()

        threads = [
            threading.Thread(target=write_one, args=(n, a))
            for n, a in arrs.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        landed = control.flush()
        assert sorted(p.lstrip("/") for p in landed) == sorted(arrs)
        control.close()
        report = certify(path, {k.split("/")[-1]: v for k, v in arrs.items()})
        assert report.passed

    def test_api_open_routes_to_daemon(self, server, tmp_path):
        path = str(tmp_path / "routed.phd5")
        arr = _field()
        f = api.open(path, "w", server=server.address)
        ds = f.create_dataset("fields/x", arr.shape, arr.dtype, error_bound=1e-3)
        ds[...] = arr
        f.flush()
        f.close()
        with api.open(path, "r") as local:
            got = local["fields/x"][...]
        assert np.max(np.abs(got.astype(np.float64) - arr)) <= 1e-3 * 1.0001

    def test_api_open_server_rejects_comm(self, server, tmp_path):
        # There is no caller-managed comm= mode to combine with server=.
        with pytest.raises(TypeError, match="comm"):
            api.open(str(tmp_path / "x.phd5"), "w",
                     server=server.address, comm=object())

    def test_read_mode_is_rejected(self, server, tmp_path):
        from repro.errors import ReadOnlyError

        with pytest.raises(ReadOnlyError):
            open_remote(server.address, str(tmp_path / "x.phd5"), "r")

    @pytest.mark.parametrize("field", ["sample_fraction", "verify"])
    def test_retired_config_field_is_rejected(self, server, tmp_path, field):
        """The wire carries PipelineConfig's one setting; a client sending a
        retired field is refused at open."""
        client = ServeClient(server.address)
        try:
            with pytest.raises(ServeError, match=field):
                client.request({
                    "op": "open", "path": str(tmp_path / "x.phd5"), "mode": "w",
                    "strategy": None, "nranks": None, "machine": None,
                    "config": {field: 0.1 if field == "sample_fraction" else True},
                })
        finally:
            client.close()

    def test_lookup_resolves_other_clients_datasets(self, server, tmp_path):
        path = str(tmp_path / "shared.phd5")
        arr = _field()
        creator = open_remote(server.address, path, "w", tenant="creator")
        creator.create_dataset("fields/shared", arr.shape, arr.dtype,
                               error_bound=1e-3)
        writer = open_remote(server.address, path, "w", tenant="writer")
        ds = writer["fields/shared"]  # created by the other client
        assert ds.shape == arr.shape
        ds[...] = arr
        writer.close()
        creator.flush()
        creator.close()
        assert certify(path, {"shared": arr}).passed

    def test_unknown_dataset_lookup_fails(self, server, tmp_path):
        f = open_remote(server.address, str(tmp_path / "x.phd5"), "w")
        with pytest.raises(RemoteOpError):
            f["fields/never-created"]
        f.close()

    def test_append_step_streams_time_axis(self, server, tmp_path):
        path = str(tmp_path / "steps.phd5")
        shape = (8, 8, 8)
        f = open_remote(server.address, path, "w")
        f.create_dataset("u", shape, np.float32,
                         maxshape=(None, *shape), error_bound=1e-3)
        steps = [_field(shape, seed=s) for s in range(3)]
        for s in steps:
            f.append_step({"u": s})
        f.flush()
        f.close()
        with api.open(path, "r") as local:
            ds = local["u"]
            assert ds.shape[0] == 3
            got = ds[2]
        assert np.max(np.abs(got.astype(np.float64) - steps[2])) <= 1e-3 * 1.0001

    def test_rejected_step_does_not_wedge_the_stream(self, server, tmp_path):
        """A step the codec rejects surfaces at the next commit; the next
        good step lands in its place and the file holds both steps."""
        path = str(tmp_path / "badstep.phd5")
        shape = (8, 8, 8)
        steps = [_field(shape, seed=s) for s in range(2)]
        bad = steps[1].copy()
        bad[1, 2, 3] = np.nan
        f = open_remote(server.address, path, "w")
        f.create_dataset("u", shape, np.float32,
                         maxshape=(None, *shape), error_bound=1e-3)
        f.append_step({"u": steps[0]})
        f.append_step({"u": bad})
        with pytest.raises(RemoteOpError, match="BatchIngestError"):
            f.flush()
        f.append_step({"u": steps[1]})
        f.flush()
        f.close()
        with api.open(path, "r") as local:
            ds = local["u"]
            assert ds.shape[0] == 2
            for t, ref in enumerate(steps):
                assert np.max(np.abs(ds[t].astype(np.float64) - ref)) <= 1e-3 * 1.0001

    def test_staged_write_errors_surface_at_flush(self, server, tmp_path):
        path = str(tmp_path / "err.phd5")
        arr = _field()
        f = open_remote(server.address, path, "w")
        f.create_dataset("fields/ok", arr.shape, arr.dtype, error_bound=1e-3)
        # Forge an ingest op against a dataset that does not exist: it is
        # acked at enqueue (queued=True) and must fail at execution,
        # surfacing in the next commit response.
        meta, payload = protocol.pack_array(arr)
        response = f._client.request(
            {
                "op": "write",
                "fid": f._fid,
                "name": "fields/ghost",
                "regions": [[0, s] for s in arr.shape],
            }
            | meta,
            payload,
            retry=True,
        )
        assert response.get("queued")
        with pytest.raises(RemoteOpError, match="BatchIngestError"):
            f.flush()
        # Error accounting is per batch: the next flush starts clean.
        f["fields/ok"][...] = arr
        f.flush()
        f.close()

    @pytest.mark.parametrize("first", ["good", "bad"])
    def test_rejected_tenant_block_keeps_other_tenants_data(self, server, tmp_path, first):
        """Two tenants each stage one dataset of one file and the bad
        tenant's block holds a NaN: whichever handle commits, the good
        dataset lands, only the bad handle hears of the rejection, and its
        close never returns normally."""
        path = str(tmp_path / "tenants.phd5")
        shape = (16, 16, 16)
        arrays = {"good": _field(shape, seed=1), "bad": _field(shape, seed=2)}
        arrays["bad"][1, 2, 3] = np.nan
        handles = {}
        for name, arr in arrays.items():
            handles[name] = open_remote(server.address, path, "w", tenant=name)
            handles[name].create_dataset(f"fields/{name}", shape, np.float32, error_bound=1e-3)
            handles[name][f"fields/{name}"][...] = arr
        if first == "good":
            assert [p.lstrip("/") for p in handles["good"].flush()] == ["fields/good"]
            handles["good"].close()
            with pytest.raises(RemoteOpError, match="CompressionError"):
                handles["bad"].close()
        else:
            with pytest.raises(RemoteOpError, match="CompressionError"):
                handles["bad"].flush()
            assert handles["good"].flush() == []  # landed in the bad handle's commit
            handles["good"].close()
            with pytest.raises(RemoteOpError, match="fields/bad was rejected"):
                handles["bad"].close()
        with api.open(path, "r") as local:
            assert list(local["fields"]) == ["good"]
            err = np.abs(local["fields/good"][...].astype(np.float64) - arrays["good"])
            assert err.max() <= 1e-3 * 1.0001

    def test_client_disconnect_drops_incomplete_only(self, server, tmp_path):
        path = str(tmp_path / "disc.phd5")
        arr = _field((8, 8, 8))
        survivor = open_remote(server.address, path, "w", tenant="survivor")
        survivor.create_dataset("fields/good", arr.shape, arr.dtype,
                                error_bound=1e-3)
        survivor["fields/good"][...] = arr

        # A second client stages half a dataset, then vanishes mid-stream.
        doomed = open_remote(server.address, path, "w", tenant="doomed")
        doomed.create_dataset("fields/half", (8, 8, 8), np.float32,
                              error_bound=1e-3)
        doomed["fields/half"][0:4, :, :] = arr[0:4]
        doomed._client._sock.close()  # no close op: a torn connection

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.stats()["files"]["open_handles"] == 1:
                break
            time.sleep(0.02)
        assert server.stats()["files"]["open_handles"] == 1

        survivor.flush()
        survivor.close()
        with api.open(path, "r") as local:
            names = list(local["fields"])
            assert "good" in names
            assert "half" not in names  # incomplete staging was dropped

    def test_backpressure_rejects_then_retries(self, tmp_path):
        srv = ReproServer(port=0, tenant_depth=1, total_depth=2).start()
        try:
            path = str(tmp_path / "bp.phd5")
            arr = _field((8, 8, 8))
            f = open_remote(srv.address, path, "w")
            f.create_dataset("fields/a", arr.shape, arr.dtype, error_bound=1e-3)
            # The writer thread drains continuously, so retrying clients
            # always land eventually even at depth 1.
            for i in range(8):
                f["fields/a"][...] = arr
            f.flush()
            f.close()
            assert certify(path, {"a": arr}).passed
        finally:
            srv.stop()

    def test_queue_full_raises_after_retry_budget(self):
        # Against a server that is *permanently* full, the client must back
        # off, retry, and finally surface QueueFullError to the caller.
        with _fake_server(always_full=True) as address:
            client = ServeClient(address, retry_seconds=0.2)
            t0 = time.monotonic()
            with pytest.raises(QueueFullError):
                client.request(
                    {"op": "write", "fid": "f0", "name": "x",
                     "regions": [[0, 1]], "dtype": "<f4", "shape": [1]},
                    b"\x00\x00\x00\x00",
                    retry=True,
                )
            assert time.monotonic() - t0 >= 0.2  # it genuinely backed off
            client.close()

    def test_shutdown_drains_and_lands_complete_datasets(self, tmp_path):
        srv = ReproServer(port=0).start()
        path = str(tmp_path / "drain.phd5")
        arr = _field()
        f = open_remote(srv.address, path, "w")
        f.create_dataset("fields/x", arr.shape, arr.dtype, error_bound=1e-3)
        f["fields/x"][...] = arr
        # No flush, no close: shutdown must drain the queue, flush the
        # complete dataset, and close the file.
        srv.stop()
        assert os.path.exists(path)
        assert certify(path, {"x": arr}).passed

    def test_admin_ping_stats_shutdown(self, tmp_path):
        srv = ReproServer(port=0).start()
        try:
            admin = ServeClient(srv.address)
            admin.ping()
            stats = admin.stats()
            assert stats["connections"] >= 1
            assert "queue" in stats and "files" in stats
            admin.shutdown()
        finally:
            srv.stop()

    def test_hello_rejects_protocol_mismatch(self):
        from repro.serve.protocol import ServeError

        with _fake_server(protocol_version=999) as address:
            with pytest.raises(ServeError, match="protocol"):
                ServeClient(address)


@pytest.fixture
def sock_path():
    # Not tmp_path: AF_UNIX paths are capped near 100 bytes.
    with tempfile.TemporaryDirectory(prefix="rsv-") as tmp:
        yield os.path.join(tmp, "d.sock")


class TestOneFrontEnd:
    """``repro.open(path, "w")`` and ``repro.open(path, "w", server=...)``
    read ``create_dataset``'s arguments and ``ds[key] = value`` through the
    same two functions, so the same calls have the same outcomes."""

    @pytest.mark.parametrize("kind", ["local", "served"])
    def test_same_calls_same_outcomes(self, kind, request, tmp_path):
        path = str(tmp_path / "front.phd5")
        shape, block = (4, 4), np.zeros((4, 4), np.float32)
        if kind == "served":
            f = api.open(path, "w", server=request.getfixturevalue("server").address)
        else:
            f = api.open(path, "w")
        with f:
            fixed = f.create_dataset("fixed", shape, maxshape=shape, error_bound=1e-3)
            assert (fixed.shape, fixed.time_axis) == (shape, False)
            for name, declared in (("t0", shape), ("t1", (0, *shape))):
                ds = f.create_dataset(name, declared, maxshape=(None, *shape), error_bound=1e-3)
                assert ds.time_axis
            seeded = f.create_dataset("seeded", data=block.astype(np.float64), error_bound=1e-3)
            assert (seeded.shape, seeded.dtype) == (shape, np.float64)
            for kwargs, error in (
                ({}, ConfigError),  # neither shape nor data
                ({"shape": (2, *shape), "maxshape": (2, None, 4)}, ConfigError),  # None past axis 0
                ({"shape": shape, "maxshape": (4, 8)}, ConfigError),  # fixed maxshape != shape
                ({"shape": (3, 3), "maxshape": (None, *shape)}, ShapeMismatchError),
            ):
                with pytest.raises(error):
                    f.create_dataset("bad", error_bound=1e-3, **kwargs)
            with pytest.raises(ShapeMismatchError):
                fixed[0:2, :] = block
            with pytest.raises(HDF5Error, match="strided"):
                fixed[::2, :] = block[::2]
            # Python rejects the local keyword; over the wire it is outside
            # input, rejected with the DatasetSettings fields spelled out.
            typo = pytest.raises(ConfigError, match="error_bound.*nranks") \
                if kind == "served" else pytest.raises(TypeError)
            with typo:
                f.create_dataset("typo", shape, eror_bound=1e-3)
            fixed[...] = block
        with api.open(path) as back:
            assert {"fixed", "seeded"} <= set(back.keys())
            assert back["seeded"].dtype == np.float64


class TestAddressFormsAndTeardown:
    def test_unix_prefix_bare_paths_and_host_port_all_connect(
        self, sock_path, monkeypatch
    ):
        """``unix:<path>`` (the documented form), bare absolute and relative
        socket paths, and ``host:port`` all dial the daemon."""
        monkeypatch.chdir(os.path.dirname(sock_path))
        leaf = os.path.basename(sock_path)
        with ReproServer(unix_path=sock_path):
            for address in ("unix:" + sock_path, "unix:" + leaf, sock_path, leaf):
                client = ServeClient(address)
                client.ping()
                client.close()
        with ReproServer(port=0) as srv:
            client = ServeClient(srv.address)
            client.ping()
            client.close()

    def test_open_routes_unix_prefixed_server_address(self, sock_path, tmp_path):
        arr = _field((8, 8, 8))
        path = str(tmp_path / "u.phd5")
        with ReproServer(unix_path=sock_path):
            with api.open(path, "w", server="unix:" + sock_path) as f:
                f.create_dataset("x", arr.shape, arr.dtype, error_bound=1e-3, data=arr)
        assert certify(path, {"x": arr}, group="/").passed

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_wire_shutdown_replies_before_teardown(self, transport, sock_path):
        """``python -m repro.serve`` exits the moment ``stop()`` returns, so
        the shutdown reply must already be with the client by then."""
        srv = ReproServer(port=0) if transport == "tcp" else ReproServer(unix_path=sock_path)
        srv.start()
        replied = threading.Event()
        reply_preceded_stop = []
        real_stop = srv.stop

        stop_called = threading.Event()

        def stop(*args, **kwargs):
            reply_preceded_stop.append(replied.wait(5.0))
            stop_called.set()
            real_stop(*args, **kwargs)

        srv.stop = stop
        try:
            admin = ServeClient(srv.address)
            admin.shutdown()  # returns normally: no dropped connection
            replied.set()
            # The reader thread replies first and calls stop() after, so it
            # may not have got there yet.
            assert stop_called.wait(5.0)
        finally:
            real_stop()
        assert reply_preceded_stop == [True]

    def test_stop_unlinks_its_unix_socket_so_the_path_rebinds(self, sock_path):
        srv = ReproServer(unix_path=sock_path).start()
        assert os.path.exists(sock_path)
        srv.stop()
        assert not os.path.exists(sock_path)
        srv.stop()  # idempotent: the already-missing file is not an error
        with ReproServer(unix_path=sock_path):
            client = ServeClient("unix:" + sock_path)
            client.ping()
            client.close()
        assert not os.path.exists(sock_path)

    def test_stop_leaves_a_path_it_did_not_bind(self, sock_path):
        with open(sock_path, "w"):
            pass  # someone else's file sits at the address
        srv = ReproServer(unix_path=sock_path)
        with pytest.raises(OSError):
            srv.start()
        srv.stop(timeout=0.05)
        assert os.path.exists(sock_path)


class TestDiscardIncomplete:
    def test_facade_discard_incomplete_names_what_it_drops(self, tmp_path):
        path = str(tmp_path / "x.phd5")
        arr = _field((8, 8, 8))
        f = api.open(path, "w")
        f.create_dataset("fields/whole", arr.shape, arr.dtype, error_bound=1e-3)
        f.create_dataset("fields/partial", arr.shape, arr.dtype, error_bound=1e-3)
        f["fields/whole"][...] = arr
        f["fields/partial"][0:4, :, :] = arr[0:4]
        dropped = f.discard_incomplete()
        assert [p.lstrip("/") for p in dropped] == ["fields/partial"]
        f.close()
        with api.open(path, "r") as local:
            assert list(local["fields"]) == ["whole"]


class TestConsoleDispatch:
    def test_tools_main_dispatches_serve(self, monkeypatch):
        import repro.serve.cli as serve_cli
        from repro.tools.main import main

        calls = {}
        monkeypatch.setattr(serve_cli, "main",
                            lambda argv: calls.setdefault("serve", argv) and 0 or 0)
        assert main(["serve", "--port", "0", "--nranks", "2"]) == 0
        assert calls["serve"] == ["--port", "0", "--nranks", "2"]

    def test_serve_rejects_the_retired_smoke_flags(self, capsys):
        """Unrecognised arguments like any other: argparse exits 2 before a
        socket is bound."""
        from repro.tools.main import main

        for argv in (["--smoke"], ["--smoke-clients", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", *argv])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_mentions_serve(self, capsys):
        from repro.tools.main import main

        main(["--help"])
        assert "serve" in capsys.readouterr().out
