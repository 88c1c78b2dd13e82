"""Streaming time-steps through ``repro.open`` + ``File.append_step``:
one persistent file, warm-started planning, per-step ``"auto"`` re-tuning."""

import numpy as np
import pytest

from helpers import open_series_file, series_step
from repro.core.session import AUTO_INITIAL_STRATEGY, step_group
from repro.data import grid_partition
from repro.data.timesteps import TimestepSeries
from repro.errors import InvalidStateError, ShapeMismatchError
from repro.hdf5 import File

SHAPE = (16, 16, 16)
NRANKS = 2
FIELDS = ["baryon_density", "temperature"]
N_STEPS = 4


def _open_series(path, series, fields=FIELDS, nranks=NRANKS, **kwargs):
    return open_series_file(path, series, fields, nranks=nranks, **kwargs)


def _step(series, step, fields=FIELDS):
    return series_step(series, step, fields)


def _stream(path, series, n_steps, **kwargs):
    """Stream ``n_steps`` steps; returns the step results, the read-back
    arrays per step and the codecs the steps were written with."""
    with _open_series(path, series, **kwargs) as f:
        results = [f.append_step(_step(series, t)) for t in range(n_steps)]
        arrays = {t: {n: f[n][t] for n in FIELDS} for t in range(n_steps)}
        codecs = dict(f._step_codecs)
    return results, arrays, codecs


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("session") / "series.phd5")
    series = TimestepSeries(SHAPE, n_steps=N_STEPS, seed=5)
    results, arrays, codecs = _stream(path, series, N_STEPS)
    return path, series, results, arrays, codecs


@pytest.fixture(scope="module")
def auto_written(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("auto") / "series.phd5")
    series = TimestepSeries(SHAPE, n_steps=3, seed=11)
    results, arrays, codecs = _stream(path, series, 3, strategy="auto")
    return series, results, arrays, codecs


class TestStreaming:
    def test_all_steps_written_to_one_file(self, written):
        path, series, results, arrays, codecs = written
        assert len(results) == N_STEPS >= 4
        assert [r.step for r in results] == list(range(N_STEPS))
        assert all(r.group == step_group(r.step) for r in results)

    def test_warm_start_chain(self, written):
        """Step 0 plans cold; every later step reuses step t-1's sizes."""
        path, series, results, arrays, codecs = written
        assert not results[0].warm_started
        assert all(r.warm_started for r in results[1:])

    def test_warm_predictions_are_previous_actuals(self, written):
        path, series, results, arrays, codecs = written
        for prev, cur in zip(results, results[1:]):
            for s_prev, s_cur in zip(prev.stats, cur.stats):
                assert s_cur.predicted_nbytes == s_prev.actual_nbytes

    def test_warm_steps_skip_planning_work(self, written):
        """The streaming hot path: warm steps skip the sampling-based
        prediction pass, so they must not be slower than the cold step by
        the prediction margin.  (Wall-clock comparisons are noisy in CI;
        assert the structural claim via the prediction error instead —
        warm predictions track the previous step within a few percent.)"""
        path, series, results, arrays, codecs = written
        for r in results[1:]:
            assert abs(r.prediction_error) < 0.10

    def test_every_step_reads_back_within_bounds(self, written):
        path, series, results, arrays, codecs = written
        for step in range(N_STEPS):
            gen = series.snapshot_generator(step)
            for name in FIELDS:
                bound = codecs[name].quantizer.requested_bound
                err = np.max(
                    np.abs(arrays[step][name].astype(np.float64) - gen.field(name))
                )
                assert err <= bound * (1 + 1e-6), (step, name)

    def test_file_persists_after_close(self, written):
        path, series, results, arrays, codecs = written
        with File(path, "r") as f:
            for step in range(N_STEPS):
                for name in FIELDS:
                    out = f[f"{step_group(step)}/{name}"].read()
                    assert np.array_equal(out, arrays[step][name]), (step, name)

    def test_steps_get_disjoint_file_regions(self, written):
        """Each step's partitions live past the previous step's data."""
        path, series, results, arrays, codecs = written
        with File(path, "r") as f:
            prev_end = 0
            for step in range(N_STEPS):
                ds = f[f"{step_group(step)}/{FIELDS[0]}"]
                offsets = [ds.partition(r).offset for r in range(NRANKS)]
                assert min(offsets) >= prev_end
                prev_end = max(
                    ds.partition(r).offset + ds.partition(r).reserved
                    for r in range(NRANKS)
                )


class TestSessionGuards:
    def test_out_of_order_step_rejected(self, tmp_path):
        series = TimestepSeries(SHAPE, n_steps=2, seed=6)
        with _open_series(tmp_path / "s.phd5", series) as f:
            with pytest.raises(InvalidStateError, match="order"):
                f[FIELDS[0]][1] = series.snapshot_generator(1).field(FIELDS[0])
            f.append_step(_step(series, 0))

    def test_unknown_field_rejected(self, tmp_path):
        series = TimestepSeries(SHAPE, n_steps=1, seed=6)
        with _open_series(tmp_path / "s.phd5", series) as f:
            fields = _step(series, 0)
            with pytest.raises(ShapeMismatchError, match="unexpected"):
                f.append_step({**fields, "not_a_field": fields[FIELDS[0]]})
            f.append_step(fields)

    def test_read_unwritten_step_rejected(self, tmp_path):
        series = TimestepSeries(SHAPE, n_steps=2, seed=6)
        with _open_series(tmp_path / "s.phd5", series) as f:
            with pytest.raises(InvalidStateError):
                f[FIELDS[0]][0]
            f.append_step(_step(series, 0))

    def test_nocomp_streaming_uses_slab_partitions(self, tmp_path):
        """Raw writes need row-slab regions; a rank count that would grid-
        split trailing dimensions must still stream losslessly."""
        series = TimestepSeries(SHAPE, n_steps=2, seed=9)
        fields = ["temperature"]
        with _open_series(
            tmp_path / "s.phd5", series, fields=fields, nranks=4, strategy="nocomp"
        ) as f:
            for t in range(2):
                f.append_step(_step(series, t, fields))
            out = f["temperature"][1]
        gen = series.snapshot_generator(1)
        assert np.array_equal(out, gen.field("temperature"))


class TestAutoStrategy:
    """strategy="auto": per-step re-tuning from measured actuals."""

    def test_first_step_runs_initial_strategy(self, auto_written):
        series, results, arrays, codecs = auto_written
        assert results[0].strategy == AUTO_INITIAL_STRATEGY

    def test_each_step_executes_previous_decision(self, auto_written):
        series, results, arrays, codecs = auto_written
        for prev, cur in zip(results, results[1:]):
            assert prev.tuning is not None
            assert cur.strategy == prev.tuning.choice

    def test_decision_covers_all_registered_strategies(self, auto_written):
        series, results, arrays, codecs = auto_written
        names = {e.strategy for e in results[0].tuning.estimates}
        assert names >= {"nocomp", "filter", "overlap", "reorder"}

    def test_auto_steps_read_back_within_bounds(self, auto_written):
        series, results, arrays, codecs = auto_written
        for step, res in enumerate(results):
            gen = series.snapshot_generator(step)
            for name in FIELDS:
                bound = codecs[name].quantizer.requested_bound
                err = np.max(
                    np.abs(arrays[step][name].astype(np.float64) - gen.field(name))
                )
                assert err <= bound * (1 + 1e-6), (step, name, res.strategy)

    def test_fixed_strategy_sessions_do_not_tune(self, written):
        path, series, results, arrays, codecs = written
        assert all(r.tuning is None for r in results)
        assert all(r.strategy == "reorder" for r in results)

    def test_current_strategy_tracks_decisions(self, tmp_path):
        series = TimestepSeries(SHAPE, n_steps=2, seed=12)
        with _open_series(tmp_path / "s.phd5", series, strategy="auto") as f:
            res = f.append_step(_step(series, 0))
            assert res.strategy == AUTO_INITIAL_STRATEGY
            assert f._step_strategy == res.tuning.choice
            assert f.append_step(_step(series, 1)).strategy == res.tuning.choice

    def test_non_reordering_steps_do_not_seed_order_hints(self, tmp_path):
        """A later reorder step must re-run Algorithm 1 rather than inherit
        another strategy's insertion order as its warm-start order."""
        series = TimestepSeries(SHAPE, n_steps=2, seed=14)
        with _open_series(tmp_path / "s.phd5", series, strategy="auto") as f:
            f._step_strategy = "filter"  # force the first step's strategy
            f.append_step(_step(series, 0))
            assert f._prev_actual is not None  # warm size hints kept
            assert f._prev_orders is None      # but no order hint
            f._step_strategy = "reorder"
            res = f.append_step(_step(series, 1))
            assert res.warm_started
        # The reorder step computed its own Algorithm 1 order from the
        # warm predictions instead of copying filter's insertion order.
        from repro.core import get_strategy
        from repro.core.strategy import predict_phase_costs
        from repro.core.writers import default_models

        tmodel, wmodel = default_models("bebop", NRANKS)
        strat = get_strategy("reorder")
        parts = grid_partition(SHAPE, NRANKS)
        for rank, s in enumerate(res.stats):
            n_values = [parts[rank].n_values for _ in FIELDS]
            predicted = [s.predicted_nbytes[n] for n in FIELDS]
            compress_s, write_s = predict_phase_costs(
                tmodel, wmodel, n_values, predicted
            )
            expected = strat.compress_write.field_order(
                FIELDS, compress_s, write_s
            )
            assert s.order == expected

    def test_raw_steps_probe_compressibility_and_can_escape(self, tmp_path):
        """A step executed with a non-compressing strategy still refreshes
        the tuner's measurement (via the sampling ratio model), so the
        series is never locked into nocomp by the absence of compressed
        actuals."""
        series = TimestepSeries(SHAPE, n_steps=2, seed=13)
        with _open_series(tmp_path / "s.phd5", series, strategy="auto") as f:
            f._step_strategy = "nocomp"  # force a raw first step
            res = f.append_step(_step(series, 0))
            assert res.strategy == "nocomp"
            assert res.tuning is not None
            # The probe saw compressible data: the compressed write is
            # priced below the raw one, and the tuner moves off nocomp.
            raw = res.tuning.estimate_for("nocomp")
            compressed = res.tuning.estimate_for("filter")
            assert compressed.write_seconds < raw.write_seconds
            assert res.tuning.choice != "nocomp"
