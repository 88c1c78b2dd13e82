"""Tests for the async I/O engine, event sets, and VOL connectors."""

import threading
import time

import numpy as np
import pytest

from repro.errors import InvalidStateError
from repro.hdf5 import (
    AsyncIOEngine,
    AsyncVOL,
    DatasetCreateProps,
    EventSet,
    File,
    FileAccessProps,
    NativeVOL,
)
from repro.hdf5.filters import FILTER_SZ

from helpers import make_smooth_field


class TestAsyncIOEngine:
    def test_submit_and_wait(self):
        with AsyncIOEngine(workers=2) as eng:
            req = eng.submit(lambda: 21 * 2)
            assert req.wait(5.0) == 42
            assert req.done

    def test_exception_propagates_on_wait(self):
        with AsyncIOEngine() as eng:
            req = eng.submit(lambda: 1 / 0, label="div")
            with pytest.raises(ZeroDivisionError):
                req.wait(5.0)

    def test_parallel_execution(self):
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

        with AsyncIOEngine(workers=2) as eng:
            r1 = eng.submit(slow)
            r2 = eng.submit(fast)
            assert r1.wait(5.0) == "slow"
            assert r2.wait(5.0) == "fast"
        assert order == ["fast", "slow"]

    def test_submit_after_shutdown_rejected(self):
        eng = AsyncIOEngine()
        eng.shutdown()
        with pytest.raises(InvalidStateError):
            eng.submit(lambda: None)
        eng.shutdown()  # idempotent

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            AsyncIOEngine(workers=0)

    def test_wait_timeout(self):
        gate = threading.Event()
        with AsyncIOEngine(workers=1) as eng:
            req = eng.submit(lambda: gate.wait(10.0))
            with pytest.raises(TimeoutError):
                req.wait(0.01)
            gate.set()
            req.wait(5.0)


class TestEventSet:
    def test_wait_all_collects_values(self):
        with AsyncIOEngine(workers=2) as eng:
            es = EventSet()
            for i in range(5):
                es.add(eng.submit(lambda i=i: i * i))
            assert es.wait_all(5.0) == [0, 1, 4, 9, 16]
            assert es.n_pending == 0
            assert len(es) == 5

    def test_wait_all_reraises_first_failure(self):
        with AsyncIOEngine(workers=2) as eng:
            es = EventSet()
            es.add(eng.submit(lambda: 1))
            es.add(eng.submit(lambda: 1 / 0))
            es.add(eng.submit(lambda: 3))
            with pytest.raises(ZeroDivisionError):
                es.wait_all(5.0)


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
        fapl = FileAccessProps(async_io=True, async_workers=2)
        with File(str(tmp_path / "av.phd5"), "w", fapl=fapl) as f:
            dcpl = DatasetCreateProps(
                chunks=(8, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
            )
            ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
            ds.declare_partitions([4096], [len(stream) * 2], regions=[[[0, 8], [0, 8]]])
            es = EventSet()
            vol = AsyncVOL(f.async_engine, event_set=es)
            vol.partition_write(ds, 0, stream)
            results = es.wait_all(10.0)
            assert results == [0]
            out = ds.read_partition_array(0)
            assert np.max(np.abs(out - data)) <= 1e-3

    def test_async_vol_slab(self, tmp_path):
        data = make_smooth_field((8, 8))
        fapl = FileAccessProps(async_io=True)
        with File(str(tmp_path / "avs.phd5"), "w", fapl=fapl) as f:
            ds_raw = f.create_dataset("raw", shape=(8, 8))
            es = EventSet()
            vol = AsyncVOL(f.async_engine, event_set=es)
            vol.slab_write(ds_raw, data, (0, 0))
            es.wait_all(10.0)
            assert np.array_equal(ds_raw.read(), data)

    def test_file_async_engine_lifecycle(self, tmp_path):
        f = File(str(tmp_path / "ae.phd5"), "w", fapl=FileAccessProps(async_io=True))
        eng = f.async_engine
        assert f.async_engine is eng  # cached
        f.close()  # shuts the engine down with the file
        with pytest.raises(InvalidStateError):
            eng.submit(lambda: None)
