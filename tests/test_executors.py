"""Executor-subsystem semantics: ordering, error propagation, parity.

The contract every backend must honor (and the reason the fan-out hot
paths can default to serial while scaling on demand):

* ``map_cells`` returns results in item order and raises the
  lowest-index failure after attempting every cell;
* ``map_ranks`` matches :func:`repro.mpi.executor.run_spmd` — rank-order
  results, lowest-rank exception propagation;
* parallel backends change wall-clock only: identical sweep makespans,
  identical tuning choices, and bit-identical written files.
"""

import threading
import time

import numpy as np
import pytest

from helpers import open_series_file, series_step
from repro.core import (
    PipelineConfig,
    RealDriver,
    simulate_matrix,
    simulate_strategy,
    workload_from_arrays,
)
from repro.core.autotune import AutoTuner, exhaustive_oracle
from repro.core.scenarios import get_scenario, scenario_matrix
from repro.data.timesteps import TimestepSeries
from repro.errors import ConfigError
from repro.exec import (
    EXECUTOR_NAMES,
    SerialExecutor,
    ThreadPoolExecutor,
    get_executor,
    resolve_executor,
)
from repro.hdf5 import File, FileAccessProps
from repro.mpi import run_spmd
from repro.sim.machine import BEBOP

BACKENDS = ("serial", "thread")


def _square(x):
    return x * x


def _fail_on_multiples_of_three(x):
    """Module-level failing cell for error-propagation tests."""
    if x % 3 == 0:
        raise ValueError(f"cell {x} failed")
    return x


@pytest.fixture(params=BACKENDS)
def executor(request):
    ex = get_executor(request.param, **(
        {"max_workers": 2} if request.param != "serial" else {}
    ))
    yield ex
    ex.close()


class TestMapCells:
    def test_results_in_item_order(self, executor):
        assert executor.map_cells(_square, range(17)) == [x * x for x in range(17)]

    def test_empty_and_single_item(self, executor):
        assert executor.map_cells(_square, []) == []
        assert executor.map_cells(_square, [3]) == [9]

    def test_lowest_index_error_propagates(self, executor):
        with pytest.raises(ValueError, match="cell 3 failed"):
            executor.map_cells(_fail_on_multiples_of_three, [1, 2, 3, 4, 6, 9])

    def test_ordering_independent_of_completion_order(self):
        # Later items finish first; results must still come back in order.
        def slow_head(x):
            time.sleep(0.02 if x == 0 else 0.0)
            return x

        with ThreadPoolExecutor(max_workers=4) as ex:
            assert ex.map_cells(slow_head, range(8)) == list(range(8))

    def test_all_cells_attempted_despite_failure(self):
        # run_spmd parity: a failing cell does not cancel its peers.
        seen = []

        def fn(x):
            seen.append(x)
            if x == 1:
                raise RuntimeError("boom")
            return x

        for ex in (SerialExecutor(), ThreadPoolExecutor(max_workers=2)):
            seen.clear()
            with ex, pytest.raises(RuntimeError):
                ex.map_cells(fn, range(5))
            assert sorted(seen) == list(range(5))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_executor("gpu")
        with pytest.raises(ConfigError, match=r"available: \['serial', 'thread'\]"):
            get_executor("process")
        with pytest.raises(ConfigError):
            resolve_executor(42)

    def test_nonpositive_max_workers_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                ThreadPoolExecutor(max_workers=bad)

    def test_resolve_passthrough_and_default(self):
        ex = ThreadPoolExecutor(max_workers=1)
        assert resolve_executor(ex) is ex
        assert resolve_executor(None).name == "serial"
        assert resolve_executor("thread").name == "thread"
        assert tuple(EXECUTOR_NAMES) == ("serial", "thread")


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
        # ...must win under every backend (nranks=4 > max_workers=2 also
        # exercises the dedicated-thread fallback of the pool backends).
        with pytest.raises(ValueError, match="rank 1 failed"):
            executor.map_ranks(4, fn, timeout=10.0)

    def test_pool_wide_enough_reuses_workers(self):
        with ThreadPoolExecutor(max_workers=8) as ex:
            names = ex.map_ranks(4, lambda comm: threading.current_thread().name)
        assert all(n.startswith("repro-exec") for n in names)

    def test_cells_parallel_here_reflects_nesting(self):
        # Outside the pool a fan-out is real; from a pooled worker it is
        # inline — the drivers use this to keep the overlap loop there.
        assert not SerialExecutor().cells_parallel_here
        with ThreadPoolExecutor(max_workers=2) as ex:
            assert ex.cells_parallel_here
            assert ex.map_cells(lambda _: ex.cells_parallel_here, range(2)) == [
                False,
                False,
            ]

    def test_nested_map_cells_inside_pooled_ranks_cannot_deadlock(self):
        # Rank tasks fill the whole pool, then fan out cells: the nested
        # map_cells must run inline rather than wait for workers that
        # will never free up.
        with ThreadPoolExecutor(max_workers=4) as ex:
            out = ex.map_ranks(
                4, lambda comm: ex.map_cells(_square, range(3)), timeout=15.0
            )
        assert out == [[0, 1, 4]] * 4

    def test_concurrent_spmd_runs_sharing_one_pool_cannot_starve(self):
        # Two simultaneous map_ranks on a pool that only fits one: the
        # capacity reservation must push the loser onto dedicated
        # threads instead of queueing its ranks behind the winner's
        # barrier (which would hang until the SPMD timeout).
        with ThreadPoolExecutor(max_workers=4) as ex:
            ready = threading.Barrier(2, timeout=10.0)

            def spmd_body(comm):
                if comm.rank == 0:
                    ready.wait()  # overlap the two runs in time
                comm.barrier()
                return comm.rank

            def one_run(_):
                return ex.map_ranks(3, spmd_body, timeout=15.0)

            import concurrent.futures as cf

            with cf.ThreadPoolExecutor(max_workers=2) as driver:
                results = list(driver.map(one_run, range(2)))
        assert results == [[0, 1, 2], [0, 1, 2]]

    def test_narrow_pool_falls_back_to_dedicated_threads(self):
        # 2 workers cannot host 4 barrier-synchronized ranks; the barrier
        # in the rank body would deadlock without the fallback.
        def fn(comm):
            comm.barrier()
            return threading.current_thread().name

        with ThreadPoolExecutor(max_workers=2) as ex:
            names = ex.map_ranks(4, fn, timeout=10.0)
        assert all(n.startswith("rank-") for n in names)


class TestDeterminismAcrossBackends:
    def test_sweep_makespans_identical(self):
        cases = scenario_matrix(seeds=(0,), nranks=8, values_per_partition=1 << 16)
        serial = simulate_matrix(cases, strategies=("filter", "reorder"))
        with ThreadPoolExecutor(max_workers=2) as ex:
            threaded = simulate_matrix(cases, strategies=("filter", "reorder"), executor=ex)
        assert [c.makespan_seconds for c in serial] == [
            c.makespan_seconds for c in threaded
        ]
        assert [c.case_label for c in serial] == [c.case_label for c in threaded]

    def test_simulate_strategy_executor_neutral(self):
        wl = get_scenario("balanced").scaled(nranks=8, nfields=5).workload(0)
        base = simulate_strategy("reorder", wl, BEBOP)
        with ThreadPoolExecutor(max_workers=2) as ex:
            par = simulate_strategy("reorder", wl, BEBOP, executor=ex)
        assert par.makespan_seconds == base.makespan_seconds
        assert par.compress_seconds == base.compress_seconds

    def test_tuner_choices_identical(self):
        wl = get_scenario("field-size-skew").scaled(nranks=8, nfields=5).workload(1)
        decisions = {}
        for backend in BACKENDS:
            with get_executor(backend, **(
                {"max_workers": 2} if backend != "serial" else {}
            )) as ex:
                decisions[backend] = AutoTuner(BEBOP, executor=ex).evaluate(wl)
        serial, threaded = decisions["serial"], decisions["thread"]
        assert threaded.choice == serial.choice
        assert [e.makespan_seconds for e in threaded.estimates] == pytest.approx(
            [e.makespan_seconds for e in serial.estimates]
        )

    def test_oracle_identical(self):
        wl = get_scenario("many-small-fields").scaled(nranks=8).workload(0)
        base = exhaustive_oracle(wl)
        with ThreadPoolExecutor(max_workers=2) as ex:
            assert exhaustive_oracle(wl, executor=ex) == base


class TestRealDriverUnderThreadBackend:
    def _write(self, path, arrays, executor):
        f = File(str(path), "w", fapl=FileAccessProps(async_io=True, async_workers=2))
        driver = RealDriver("reorder", executor=executor)

        def rank_fn(comm):
            local, region = arrays.payload[comm.rank]
            return driver.run(comm, f, local, region, arrays.shape, arrays.codecs)

        try:
            return executor.map_ranks(arrays.nranks, rank_fn)
        finally:
            f.close()

    def test_sim_real_parity_spot_check(self, tmp_path):
        """Per-rank byte parity between SimDriver and a thread-backend
        RealDriver — the strategy-engine contract must survive the
        executor fan-out."""
        arrays = get_scenario("balanced").array_payload(seed=0)
        wl = workload_from_arrays(
            [local for local, _ in arrays.payload], arrays.codecs, name="parity"
        )
        with ThreadPoolExecutor(max_workers=4) as ex:
            stats = self._write(tmp_path / "thread.phd5", arrays, ex)
        sim = simulate_strategy("reorder", wl, BEBOP)
        actual = wl.matrix("actual_nbytes")
        for r, s in enumerate(stats):
            for f, name in enumerate(arrays.fields):
                assert s.actual_nbytes[name] == actual[f, r]
                assert s.overflow_nbytes[name] == sim.overflow_plan.tail_nbytes[f, r]

    def test_written_bytes_identical_serial_vs_thread(self, tmp_path):
        arrays = get_scenario("balanced").array_payload(seed=0)
        self._write(tmp_path / "serial.phd5", arrays, SerialExecutor())
        with ThreadPoolExecutor(max_workers=4) as ex:
            self._write(tmp_path / "thread.phd5", arrays, ex)
        assert (tmp_path / "serial.phd5").read_bytes() == (
            tmp_path / "thread.phd5"
        ).read_bytes()


class TestSessionWiring:
    """The facade's streamed steps run on the file's executor."""

    SERIES = TimestepSeries(shape=(12, 8, 8), n_steps=2, seed=5)

    def _open(self, path, **kwargs):
        return open_series_file(path, self.SERIES, nranks=2, **kwargs)

    def _append(self, f, step):
        return f.append_step(series_step(self.SERIES, step))

    @staticmethod
    def _record_executors(monkeypatch, name):
        """The executor of every ``RealDriver``/``AutoTuner`` (``name``) the
        facade builds from now on, in build order."""
        import repro.api.file as facade

        seen = []

        class Recording(getattr(facade, name)):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.executor)

        monkeypatch.setattr(facade, name, Recording)
        return seen

    def test_session_file_identical_serial_vs_thread(self, tmp_path):
        for backend, name in (("serial", "a.phd5"), ("thread", "b.phd5")):
            with self._open(tmp_path / name, executor=backend) as f:
                for step in range(len(self.SERIES)):
                    self._append(f, step)
        assert (tmp_path / "a.phd5").read_bytes() == (tmp_path / "b.phd5").read_bytes()

    def test_config_executor_default_resolution(self, tmp_path, monkeypatch):
        config = PipelineConfig(executor="thread")
        drivers = self._record_executors(monkeypatch, "RealDriver")
        f = self._open(tmp_path / "c.phd5", config=config)
        try:
            assert f._executor.name == "thread"
            result = self._append(f, 0)
            assert drivers and all(ex is f._executor for ex in drivers)
            assert result.actual_nbytes > 0
        finally:
            f.close()
        # Name-resolved pools belong to the file: close() shuts them down
        # (the pool attribute is cleared on shutdown).
        assert f._executor._pool is None

    def test_caller_passed_executor_survives_session_close(self, tmp_path, monkeypatch):
        drivers = self._record_executors(monkeypatch, "RealDriver")
        with ThreadPoolExecutor(max_workers=4) as ex:
            with self._open(tmp_path / "e.phd5", executor=ex) as f:
                self._append(f, 0)
                assert drivers and all(d is ex for d in drivers)
            # File closed; the shared pool must still be usable.
            assert ex.map_cells(_square, range(3)) == [0, 1, 4]

    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ConfigError):
            PipelineConfig(executor="quantum")

    def test_auto_session_tuner_shares_executor(self, tmp_path, monkeypatch):
        tuners = self._record_executors(monkeypatch, "AutoTuner")
        with self._open(tmp_path / "d.phd5", strategy="auto", executor="thread") as f:
            result = self._append(f, 0)
            assert tuners and all(ex is f._executor for ex in tuners)
            assert result.tuning is not None


def test_codec_fanout_bit_identical_across_backends():
    from repro.compression.codec import compress_fields
    from repro.compression.sz import SZCompressor

    rng = np.random.default_rng(7)
    fields = {f"f{i}": rng.normal(size=(24, 16)).astype(np.float32) for i in range(6)}
    codecs = {n: SZCompressor(bound=1e-3, mode="abs") for n in fields}
    serial = compress_fields(fields, codecs)
    with ThreadPoolExecutor(max_workers=2) as tex:
        threaded = compress_fields(fields, codecs, executor=tex)
    assert serial == threaded
