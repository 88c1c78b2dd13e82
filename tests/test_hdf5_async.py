"""Tests for the file's background write pool, the write driver's wait
helper, and the native VOL pass-through."""

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import _wait_writes
from repro.errors import ConfigError
from repro.hdf5 import DatasetCreateProps, File, FileAccessProps, NativeVOL
from repro.hdf5.filters import FILTER_SZ

from helpers import make_smooth_field


@pytest.fixture
def pool(tmp_path):
    """A writable file's background write pool (two workers)."""
    with File(str(tmp_path / "pool.phd5"), "w", fapl=FileAccessProps(async_workers=2)) as f:
        yield f.async_engine


class TestAsyncIOEngine:
    def test_submit_and_wait(self, pool):
        fut = pool.submit(lambda: 21 * 2)
        assert _wait_writes({"answer": fut}, 5.0) == [42]
        assert fut.done()

    def test_exception_propagates_on_wait(self, pool):
        fut = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            _wait_writes({"div": fut}, 5.0)

    def test_parallel_execution(self, pool):
        order = []
        gate = threading.Event()

        def slow():
            gate.wait(5.0)
            order.append("slow")
            return "slow"

        def fast():
            order.append("fast")
            gate.set()
            return "fast"

        writes = {"slow": pool.submit(slow), "fast": pool.submit(fast)}
        assert _wait_writes(writes, 5.0) == ["slow", "fast"]
        assert order == ["fast", "slow"]

    def test_submit_after_shutdown_rejected(self, tmp_path):
        f = File(str(tmp_path / "s.phd5"), "w")
        pool = f.async_engine
        f.close()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)
        f.close()  # idempotent

    def test_worker_validation(self):
        with pytest.raises(ConfigError):
            FileAccessProps(async_workers=0)

    def test_wait_timeout(self, pool):
        gate = threading.Event()
        fut = pool.submit(lambda: gate.wait(10.0))
        with pytest.raises(TimeoutError, match="stuck"):
            _wait_writes({"stuck": fut}, 0.01)
        gate.set()
        assert _wait_writes({"stuck": fut}, 5.0) == [True]


class TestEventSet:
    def test_wait_all_collects_values(self, pool):
        writes = {f"sq{i}": pool.submit(lambda i=i: i * i) for i in range(5)}
        assert _wait_writes(writes, 5.0) == [0, 1, 4, 9, 16]
        assert all(fut.done() for fut in writes.values())

    def test_wait_all_reraises_first_failure(self, pool):
        """The first failure *in submission order* is raised, and only
        once every write has settled."""

        def late_failure():
            time.sleep(0.1)
            raise ValueError("first submitted")

        writes = {
            "late": pool.submit(late_failure),
            "early": pool.submit(lambda: 1 / 0),
            "ok": pool.submit(lambda: 3),
        }
        with pytest.raises(ValueError, match="first submitted"):
            _wait_writes(writes, 5.0)
        assert all(fut.done() for fut in writes.values())


class TestVOLConnectors:
    def test_native_vol_partition_write(self, tmp_path):
        data = make_smooth_field((8, 8))
        from repro.compression import SZCompressor

        stream = SZCompressor(bound=1e-3, mode="abs").compress(data)
        with File(str(tmp_path / "nv.phd5"), "w") as f:
            dcpl = DatasetCreateProps(
                chunks=(8, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
            )
            ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
            ds.declare_partitions([4096], [len(stream) * 2], regions=[[[0, 8], [0, 8]]])
            vol = NativeVOL()
            assert vol.partition_write(ds, 0, stream) == 0
            out = ds.read_partition_array(0)
            assert np.max(np.abs(out - data)) <= 1e-3

    def test_async_vol_tracks_event_set(self, tmp_path):
        data = make_smooth_field((8, 8))
        from repro.compression import SZCompressor

        stream = SZCompressor(bound=1e-3, mode="abs").compress(data)
        fapl = FileAccessProps(async_workers=2)
        with File(str(tmp_path / "av.phd5"), "w", fapl=fapl) as f:
            dcpl = DatasetCreateProps(
                chunks=(8, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
            )
            ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
            ds.declare_partitions([4096], [len(stream) * 2], regions=[[[0, 8], [0, 8]]])
            fut = f.async_engine.submit(ds.write_partition, 0, stream)
            assert _wait_writes({"d#0": fut}, 10.0) == [0]
            out = ds.read_partition_array(0)
            assert np.max(np.abs(out - data)) <= 1e-3

    def test_async_vol_slab(self, tmp_path):
        data = make_smooth_field((8, 8))
        with File(str(tmp_path / "avs.phd5"), "w") as f:
            ds_raw = f.create_dataset("raw", shape=(8, 8))
            fut = f.async_engine.submit(ds_raw.write_slab, data, (0, 0))
            _wait_writes({"raw@0": fut}, 10.0)
            assert np.array_equal(ds_raw.read(), data)

    def test_file_async_engine_lifecycle(self, tmp_path):
        f = File(str(tmp_path / "ae.phd5"), "w")
        eng = f.async_engine
        assert f.async_engine is eng  # cached
        name = eng.submit(lambda: threading.current_thread().name).result(5.0)
        assert name.startswith("async-io")
        f.close()  # shuts the pool down with the file
        with pytest.raises(RuntimeError):
            eng.submit(lambda: None)
