"""Read-side integration: decoded-partition cache, per-file read stats,
parallel partition decode, and concurrent-reader safety of ``repro.open``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from helpers import make_smooth_field
from repro.cache import DEFAULT_MAX_BYTES, get_cache

SHAPE = (16, 16, 16)
BOUND = 1e-3


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from cache traffic elsewhere in the suite."""
    cache = get_cache()
    cache.clear()
    cache.reset_stats()
    yield cache
    cache.configure(DEFAULT_MAX_BYTES)
    cache.clear()
    cache.reset_stats()


def _write_file(path: str, nranks: int = 8, seed: int = 0) -> np.ndarray:
    data = make_smooth_field(shape=SHAPE, noise=0.01, seed=seed)
    with repro.open(path, "w", nranks=nranks) as f:
        ds = f.create_dataset("fields/rho", SHAPE, np.float32, error_bound=BOUND)
        ds[...] = data
    return data


class TestDecodedPartitionCache:
    def test_repeat_read_hits_cache(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            ds = f["fields/rho"]
            first = ds[...]
            stats = f.read_stats
            decoded_once = stats.partitions_decoded
            assert decoded_once > 0 and stats.cache_hits == 0
            second = ds[...]
            assert stats.partitions_decoded == decoded_once  # no re-decode
            assert stats.cache_hits == decoded_once
            assert np.array_equal(first, second)
            assert stats.hit_rate == pytest.approx(0.5)
            assert stats.bytes_decoded == first.nbytes

    def test_region_read_only_decodes_intersecting_partitions(
        self, tmp_path, fresh_cache
    ):
        path = str(tmp_path / "f.phd5")
        data = _write_file(path)
        with repro.open(path) as f:
            ds = f["fields/rho"]
            region = ds[0:4, 0:4, 0:4]
            assert np.abs(region - data[0:4, 0:4, 0:4]).max() <= BOUND * (1 + 1e-6)
            stats = f.read_stats
            # An 8-rank grid decomposition puts one corner octant over this
            # region; certainly not all partitions.
            assert 0 < stats.partitions_decoded < 8
            partial = stats.partitions_decoded
            ds[...]  # full read decodes only the remaining partitions
            assert stats.partitions_decoded == 8
            assert stats.cache_hits == partial

    def test_cached_reads_are_value_identical(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            cold = f["fields/rho"][...]
        with repro.open(path) as f:
            warmup = f["fields/rho"][...]  # populate
            warm = f["fields/rho"][...]    # served from cache
            assert f.read_stats.cache_hits > 0
        assert np.array_equal(cold, warm)
        assert np.array_equal(warmup, warm)

    def test_close_purges_file_entries(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            f["fields/rho"][...]
            assert len(fresh_cache) > 0
        assert len(fresh_cache) == 0

    def test_reopen_never_serves_stale_entries(self, tmp_path, fresh_cache):
        # Same path, different File identity: the second open must miss
        # (fresh token) rather than risk serving bytes from open #1.
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            f["fields/rho"][...]
        with repro.open(path) as f:
            f["fields/rho"][...]
            assert f.read_stats.cache_hits == 0
            assert f.read_stats.partitions_decoded > 0

    def test_disabled_cache_still_reads_correctly(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        data = _write_file(path)
        fresh_cache.configure(0)
        with repro.open(path) as f:
            out1 = f["fields/rho"][...]
            out2 = f["fields/rho"][...]
            assert f.read_stats.cache_hits == 0
            assert f.read_stats.partitions_decoded == 16  # decoded twice
        assert len(fresh_cache) == 0
        assert np.array_equal(out1, out2)
        assert np.abs(out1 - data).max() <= BOUND * (1 + 1e-6)

    def test_tiny_budget_evicts_but_stays_correct(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        data = _write_file(path)
        one_partition = (np.prod(SHAPE) // 8) * 4  # float32 octant
        fresh_cache.configure(int(one_partition * 2.5))
        with repro.open(path) as f:
            out = f["fields/rho"][...]
            assert np.abs(out - data).max() <= BOUND * (1 + 1e-6)
        assert fresh_cache.stats().evictions > 0


class TestParallelReads:
    def test_thread_executor_read_matches_serial(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            serial = f["fields/rho"][...]
        fresh_cache.clear()
        with repro.open(path, executor="thread") as f:
            parallel = f["fields/rho"][...]
            region_s = serial[2:14, 3:9, 0:16]
            fresh_cache.clear()  # force the region through parallel decode too
            region_p = f["fields/rho"][2:14, 3:9, 0:16]
        assert np.array_equal(serial, parallel)
        assert np.array_equal(region_s, region_p)

    def test_parallel_decode_populates_cache(self, tmp_path, fresh_cache):
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path, executor="thread") as f:
            f["fields/rho"][...]
            stats = f.read_stats
            assert stats.partitions_decoded == 8
            f["fields/rho"][...]
            assert stats.partitions_decoded == 8
            assert stats.cache_hits == 8

    def test_time_axis_read_uses_the_files_executor(self, tmp_path, fresh_cache):
        # ``ds[t]`` decodes through the file's executor, as ``ds[...]`` does.
        from repro.exec import ThreadPoolExecutor

        class Recording(ThreadPoolExecutor):
            calls = 0

            def map_cells(self, fn, items):
                self.calls += 1
                return super().map_cells(fn, items)

        path = str(tmp_path / "t.phd5")
        data = make_smooth_field(shape=SHAPE, noise=0.01)
        with repro.open(path, "w", nranks=4) as f:
            f.create_dataset(
                "rho", SHAPE, np.float32, maxshape=(None, *SHAPE), error_bound=BOUND
            )
            f.append_step({"rho": data})
        fresh_cache.clear()
        with Recording(max_workers=2) as ex, repro.open(path, executor=ex) as f:
            step = f["rho"][0]
        assert ex.calls >= 1
        assert np.abs(step - data).max() <= BOUND * (1 + 1e-6)


class TestConcurrentReaders:
    def test_many_threads_shared_handle_byte_identical(self, tmp_path, fresh_cache):
        # The tentpole contract: repro.open(mode="r") is safe from many
        # threads.  8 threads interleave full and region reads on one
        # shared handle; every result must be byte-identical to serial.
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            reference = f["fields/rho"][...]
        regions = [
            (slice(0, 16), slice(0, 16), slice(0, 16)),
            (slice(0, 8), slice(0, 8), slice(0, 8)),
            (slice(4, 12), slice(4, 12), slice(4, 12)),
            (slice(8, 16), slice(0, 16), slice(3, 11)),
        ]
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def reader(tid: int) -> None:
            try:
                start.wait()
                with_region = regions[tid % len(regions)]
                for _ in range(5):
                    full = shared["fields/rho"][...]
                    assert np.array_equal(full, reference), "full read diverged"
                    part = shared["fields/rho"][with_region]
                    assert np.array_equal(part, reference[with_region]), (
                        "region read diverged"
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with repro.open(path) as shared:
            threads = [threading.Thread(target=reader, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors

    def test_many_threads_private_handles_byte_identical(self, tmp_path, fresh_cache):
        # Each thread opens the file itself — the pattern of a parallel
        # analysis script — including some through the thread executor.
        path = str(tmp_path / "f.phd5")
        _write_file(path)
        with repro.open(path) as f:
            reference = f["fields/rho"][...]
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def reader(tid: int) -> None:
            try:
                start.wait()
                executor = "thread" if tid % 2 else None
                with repro.open(path, executor=executor) as f:
                    results[tid] = f["fields/rho"][...]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(results) == 6
        for tid, out in results.items():
            assert np.array_equal(out, reference), f"thread {tid} diverged"
