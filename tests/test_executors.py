"""What is left of the executor backends: ``repro.exec.get_executor``.

The library's one SPMD fan-out is :func:`repro.mpi.executor.run_spmd`;
``get_executor`` survives only for the benchmark's ``exec.map_ranks`` row.
Either retired backend name must give the same ``map_ranks`` as
``run_spmd`` — rank-order results, working collectives, lowest-rank error
— and the executor knob must be gone from the pipeline config.
"""

import concurrent.futures as cf
import threading

import pytest

from repro.core import PipelineConfig
from repro.errors import ConfigError
from repro.exec import get_executor
from repro.mpi import run_spmd

BACKENDS = ("serial", "thread")


@pytest.fixture(params=BACKENDS)
def executor(request):
    ex = get_executor(request.param)
    yield ex
    ex.close()


class TestMapCells:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_executor("gpu")
        with pytest.raises(ConfigError, match=r"available: \['serial', 'thread'\]"):
            get_executor("process")


class TestMapRanks:
    def test_rank_order_results(self, executor):
        out = executor.map_ranks(4, lambda comm: comm.rank * 10)
        assert out == [0, 10, 20, 30]

    def test_collectives_work(self, executor):
        out = executor.map_ranks(3, lambda comm: comm.allgather(comm.rank))
        assert out == [[0, 1, 2]] * 3

    def test_lowest_rank_exception_parity_with_run_spmd(self, executor):
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

        # The same lowest-rank winner run_spmd picks...
        with pytest.raises(ValueError, match="rank 1 failed"):
            run_spmd(4, fn, timeout=10.0)
        release.clear()
        # ...must win through either retired backend name.
        with pytest.raises(ValueError, match="rank 1 failed"):
            executor.map_ranks(4, fn, timeout=10.0)

    def test_concurrent_spmd_runs_sharing_one_pool_cannot_starve(self):
        # Two simultaneous runs through the one shared object: each gets
        # its own rank threads and barrier, so neither waits on the other.
        ex = get_executor("thread")
        ready = threading.Barrier(2, timeout=10.0)

        def spmd_body(comm):
            if comm.rank == 0:
                ready.wait()  # overlap the two runs in time
            comm.barrier()
            return comm.rank

        with cf.ThreadPoolExecutor(max_workers=2) as driver:
            results = list(
                driver.map(lambda _: ex.map_ranks(3, spmd_body, timeout=15.0), range(2))
            )
        assert results == [[0, 1, 2], [0, 1, 2]]


class TestSessionWiring:
    def test_config_rejects_unknown_executor(self):
        # Not a setting any more: every value is refused, the constant
        # the benchmark reads stays.
        for name in ("quantum", "serial", "thread"):
            with pytest.raises(TypeError):
                PipelineConfig(executor=name)
        assert PipelineConfig().executor == "serial"
