"""Failure-injection tests: errors must propagate loudly, never corrupt.

The paper's pipeline runs long jobs on shared files; the library must make
partial failures visible (async errors surface at wait points, rank errors
abort the SPMD run, torn files are rejected at open)."""

import threading
import time

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.core import RealDriver
from repro.core.pipeline import _wait_writes
from repro.data import NyxGenerator
from repro.data.partition import rank_payload, rank_regions
from repro.errors import (
    CompressionError,
    CorruptStreamError,
    FileFormatError,
    InvalidStateError,
)
from repro.hdf5 import Dataset, DatasetCreateProps, File, FileAccessProps
from repro.hdf5.filters import FILTER_SZ
from repro.mpi import run_spmd

from helpers import make_smooth_field


class TestAsyncFailurePropagation:
    def test_partition_write_failure_surfaces_at_wait(self, tmp_path):
        """Writing to an undeclared partition fails in the background
        thread; the driver's wait must re-raise, not swallow."""
        data = make_smooth_field((8, 8))
        stream = SZCompressor(bound=1e-3, mode="abs").compress(data)
        with File(str(tmp_path / "f.phd5"), "w") as f:
            dcpl = DatasetCreateProps(
                chunks=(8, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
            )
            ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
            # Note: no declare_partitions() -> index 0 does not exist.
            fut = f.async_engine.submit(ds.write_partition, 0, stream)
            with pytest.raises(InvalidStateError):
                _wait_writes({"d#0": fut}, 10.0)

    def test_write_after_close_fails(self, tmp_path):
        f = File(str(tmp_path / "c.phd5"), "w")
        ds = f.create_dataset("d", shape=(4,))
        f.close()
        with pytest.raises(InvalidStateError):
            ds.write(np.zeros(4, np.float32))


class TestFailedRankWaitsForItsWrites:
    def test_compression_failure_waits_for_queued_writes(self, tmp_path, monkeypatch):
        """A rank whose second field fails to compress has already queued
        the first field's write: the failure must not surface until that
        write has finished, and it is the compression error even where
        the queued write fails too (rank 0's does here)."""
        shape, nranks = (16, 16, 16), 2
        gen = NyxGenerator(shape, seed=3)
        names = list(gen.field_names[:2])
        payload = rank_payload(
            {n: gen.field(n) for n in names}, shape, rank_regions(shape, nranks)
        )

        class FailingCodec(SZCompressor):
            def compress(self, data):
                raise CompressionError("injected compression failure")

        codecs = {
            names[0]: SZCompressor(bound=gen.error_bound(names[0]), mode="abs"),
            names[1]: FailingCodec(bound=gen.error_bound(names[1]), mode="abs"),
        }
        lock = threading.Lock()
        counts = {"started": 0, "finished": 0}
        write_partition = Dataset.write_partition

        def slow_write_partition(self, index, payload):
            with lock:
                counts["started"] += 1
            time.sleep(0.3)
            try:
                if index == 0:
                    raise OSError("injected write failure")
                return write_partition(self, index, payload)
            finally:
                with lock:
                    counts["finished"] += 1

        monkeypatch.setattr(Dataset, "write_partition", slow_write_partition)
        fapl = FileAccessProps(async_workers=2)
        with File(str(tmp_path / "f.phd5"), "w", fapl=fapl) as f:
            with pytest.raises(CompressionError, match="injected"):
                RealDriver("overlap").write(f, payload, shape, codecs)
            with lock:
                assert counts == {"started": nranks, "finished": nranks}


class TestFileCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.phd5")
        with File(path, "w") as f:
            f.create_dataset("d", shape=(64,)).write(np.ones(64, np.float32))
        # Chop the footer off.
        with open(path, "r+b") as raw:
            raw.truncate(40)
        with pytest.raises(FileFormatError):
            File(path, "r")

    def test_scribbled_footer_rejected(self, tmp_path):
        path = str(tmp_path / "s.phd5")
        with File(path, "w") as f:
            f.create_dataset("d", shape=(4,)).write(np.ones(4, np.float32))
        size = __import__("os").path.getsize(path)
        with open(path, "r+b") as raw:
            raw.seek(size - 10)
            raw.write(b"XXXXXXXXXX")
        with pytest.raises(FileFormatError):
            File(path, "r")

    def test_corrupt_compressed_partition_detected(self, tmp_path):
        """Flipping bytes inside a stored SZ stream must raise on decode,
        not return silently wrong data."""
        data = make_smooth_field((16, 16))
        codec = SZCompressor(bound=1e-3, mode="abs")
        stream = codec.compress(data)
        path = str(tmp_path / "corrupt.phd5")
        with File(path, "w") as f:
            dcpl = DatasetCreateProps(
                chunks=(16, 16), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
            )
            ds = f.create_dataset("d", shape=(16, 16), layout="declared", dcpl=dcpl)
            ds.declare_partitions([4096], [len(stream)], regions=[[[0, 16], [0, 16]]])
            ds.write_partition(0, stream)
            offset = ds.partition(0).offset
        with open(path, "r+b") as raw:
            raw.seek(offset)
            raw.write(b"\x00" * 16)  # clobber the stream header
        with File(path, "r") as f:
            with pytest.raises((CorruptStreamError, Exception)):
                f["d"].read_partition_array(0)


class TestSpmdFailures:
    def test_one_rank_crash_aborts_whole_job(self):
        started = threading.Event()

        def fn(comm):
            if comm.rank == 2:
                started.wait(0.01)
                raise MemoryError("rank 2 out of memory")
            comm.barrier()
            comm.barrier()
            return comm.rank

        with pytest.raises(MemoryError):
            run_spmd(4, fn, timeout=15.0)

    def test_allgather_type_mismatch_is_callers_problem_but_no_deadlock(self):
        """Ranks disagreeing on collective participation abort, not hang."""

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 bails before the collective")
            return comm.allgather(comm.rank)

        with pytest.raises(RuntimeError):
            run_spmd(3, fn, timeout=15.0)


class TestCodecFaultTolerance:
    def test_bit_flip_in_huffman_payload(self):
        data = make_smooth_field((24, 24))
        codec = SZCompressor(bound=1e-3, mode="abs", lossless="none")
        stream = bytearray(codec.compress(data))
        # Flip bits late in the stream (payload region).
        stream[-20] ^= 0xFF
        try:
            out = codec.decompress(bytes(stream))
            # If decode survives, the error bound may be violated — that is
            # detectable by the caller; what we assert is "no crash other
            # than a clean CorruptStreamError, no hang".
            assert out.shape == data.shape
        except CorruptStreamError:
            pass

    def test_truncation_always_clean_error(self):
        data = make_smooth_field((16, 16))
        codec = SZCompressor(bound=1e-3, mode="abs")
        stream = codec.compress(data)
        for cut in (4, 20, len(stream) // 2, len(stream) - 1):
            with pytest.raises(CorruptStreamError):
                codec.decompress(stream[:cut])
