"""Tests for the thread-backed SPMD runtime."""

import os

import numpy as np
import pytest

from repro.errors import CommunicatorError, RuntimeLayerError
from repro.mpi import SharedFile, ThreadCommWorld, run_spmd


class TestRunSpmd:
    def test_returns_in_rank_order(self):
        out = run_spmd(4, lambda comm: comm.rank * 10)
        assert out == [0, 10, 20, 30]

    def test_passes_args(self):
        out = run_spmd(2, lambda comm, a, b=0: comm.rank + a + b, 5, b=2)
        assert out == [7, 8]

    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 failed")
            return comm.rank

        with pytest.raises(ValueError, match="rank 1 failed"):
            run_spmd(3, fn)

    def test_exception_during_barrier_does_not_deadlock(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("early exit")
            comm.barrier()  # would hang without barrier abort

        with pytest.raises(RuntimeError, match="early exit"):
            run_spmd(3, fn, timeout=10.0)

    def test_invalid_nranks(self):
        with pytest.raises(RuntimeLayerError):
            run_spmd(0, lambda comm: None)

    def test_non_rank0_failure_surfaces_lowest_rank_exception(self):
        """When several non-rank-0 ranks fail, the lowest-rank exception
        wins deterministically — and only after every thread has joined."""
        import threading

        release = threading.Event()

        def fn(comm):
            if comm.rank == 3:
                raise KeyError("rank 3 failed")
            if comm.rank == 1:
                release.wait(5.0)  # fail *after* rank 3 already has
                raise ValueError("rank 1 failed")
            if comm.rank == 2:
                release.set()
                raise OSError("rank 2 failed")
            return comm.rank

        with pytest.raises(ValueError, match="rank 1 failed"):
            run_spmd(4, fn, timeout=10.0)
        # All threads joined: no leaked rank threads survive the call.
        assert not [
            t for t in threading.enumerate() if t.name.startswith("rank-") and t.is_alive()
        ]

    def test_broken_barrier_only_run_raises_runtime_layer_error(self):
        """A run whose only failures are broken barriers (no root cause
        exception to blame) must surface as RuntimeLayerError, chained to
        one of the barrier breaks."""
        import threading

        def fn(comm):
            if comm.rank == 0:
                # The abort path without any non-barrier exception.
                raise threading.BrokenBarrierError()
            comm.barrier()  # peers observe the break

        with pytest.raises(RuntimeLayerError, match="broken barrier") as excinfo:
            run_spmd(3, fn, timeout=10.0)
        assert isinstance(excinfo.value.__cause__, threading.BrokenBarrierError)

    def test_size_visible(self):
        out = run_spmd(5, lambda comm: comm.size)
        assert out == [5] * 5


class TestCollectives:
    def test_allgather(self):
        out = run_spmd(4, lambda comm: comm.allgather(comm.rank**2))
        assert out == [[0, 1, 4, 9]] * 4

    def test_allgather_repeated_rounds(self):
        def fn(comm):
            acc = []
            for round_no in range(5):
                acc.append(comm.allgather((round_no, comm.rank)))
            return acc

        out = run_spmd(3, fn)
        for rank_result in out:
            for round_no, gathered in enumerate(rank_result):
                assert gathered == [(round_no, r) for r in range(3)]

    def test_allgather_numpy_arrays(self):
        def fn(comm):
            mine = np.full(4, comm.rank)
            got = comm.allgather(mine)
            return sum(int(a.sum()) for a in got)

        out = run_spmd(3, fn)
        assert out == [4 * (0 + 1 + 2)] * 3

    def test_barrier_synchronizes(self):
        import time

        log = []

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                log.append("slow-before")
            comm.barrier()
            log.append(f"after-{comm.rank}")

        run_spmd(2, fn)
        assert log[0] == "slow-before"


class TestWorld:
    def test_rank_range_validation(self):
        world = ThreadCommWorld(2)
        with pytest.raises(CommunicatorError):
            world.rank_comm(2)
        with pytest.raises(CommunicatorError):
            ThreadCommWorld(0)

    def test_comms_listing(self):
        world = ThreadCommWorld(3)
        comms = world.comms()
        assert [c.rank for c in comms] == [0, 1, 2]


class TestSharedFile:
    def test_pwrite_pread_roundtrip(self, tmp_path):
        path = str(tmp_path / "shared.bin")
        with SharedFile(path) as f:
            f.pwrite(b"hello", 0)
            f.pwrite(b"world", 100)
            assert f.pread(5, 0) == b"hello"
            assert f.pread(5, 100) == b"world"
            # Hole reads as zeros.
            assert f.pread(3, 50) == b"\x00\x00\x00"

    def test_concurrent_rank_writes(self, tmp_path):
        path = str(tmp_path / "parallel.bin")
        shared = SharedFile(path)

        def fn(comm):
            payload = bytes([comm.rank]) * 100
            shared.pwrite(payload, comm.rank * 100)
            comm.barrier()
            return None

        run_spmd(8, fn)
        for rank in range(8):
            assert shared.pread(100, rank * 100) == bytes([rank]) * 100
        shared.close()

    def test_size_and_truncate(self, tmp_path):
        with SharedFile(str(tmp_path / "t.bin")) as f:
            f.pwrite(b"x" * 10, 0)
            assert f.size() == 10
            f.truncate(4)
            assert f.size() == 4
            f.truncate(100)
            assert f.size() == 100

    def test_closed_file_rejected(self, tmp_path):
        f = SharedFile(str(tmp_path / "c.bin"))
        f.close()
        assert f.closed
        from repro.errors import InvalidStateError

        with pytest.raises(InvalidStateError):
            f.pwrite(b"x", 0)
        f.close()  # idempotent

    def test_reopen_readonly(self, tmp_path):
        path = str(tmp_path / "ro.bin")
        with SharedFile(path) as f:
            f.pwrite(b"data", 0)
        with SharedFile(path, "r") as f:
            assert f.pread(4, 0) == b"data"

    def test_mode_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SharedFile(str(tmp_path / "x.bin"), mode="a")

    def test_negative_args_rejected(self, tmp_path):
        with SharedFile(str(tmp_path / "n.bin")) as f:
            with pytest.raises(ValueError):
                f.pwrite(b"x", -1)
            with pytest.raises(ValueError):
                f.pread(1, -1)
            with pytest.raises(ValueError):
                f.truncate(-1)
