"""Closed-loop extra space for streamed steps: a warm step sizes each
(field, rank) slot from the size miss last observed on that field and
rank, with the configured Rspace as the ceiling (paper Section III-D)."""

import math

import numpy as np
import pytest

import repro
from helpers import open_series_file, series_step
from repro.compression.sz import SZCompressor
from repro.core.config import EXTRA_SPACE_MIN, PipelineConfig
from repro.core.offsets import effective_extra_space
from repro.core.pipeline import RealDriver, warm_slot_ratios
from repro.core.session import step_group
from repro.data.partition import rank_payload, rank_regions
from repro.data.timesteps import TimestepSeries
from repro.errors import CompressionError
from repro.hdf5.file import File as EngineFile

SHAPE = (16, 16, 16)
NRANKS = 4
FIELDS = ["baryon_density", "temperature"]
N_STEPS = 6
#: From this step on the first field is noise: its warm prediction misses.
JUMP = 4
CEILING = PipelineConfig().extra_space_ratio
NOISE = np.random.default_rng(0).normal(0.0, 1.0, SHAPE).astype(np.float32)


def _series():
    return TimestepSeries(SHAPE, n_steps=N_STEPS, seed=3)


def _jump_step(series, t):
    """Step ``t`` of the planted-jump series: the series' fields drift a
    little each step, and from :data:`JUMP` on the first field turns to
    noise of its own spread."""
    fields = series_step(series, t, FIELDS)
    if t >= JUMP:
        first = fields[FIELDS[0]]
        fields[FIELDS[0]] = np.roll(NOISE, t, axis=0) * np.float32(first.std())
    return fields


def _tables(path, n_steps, keys=None):
    """``tables[t][field][rank]``: the partition table of every written
    step (only ``keys`` of each entry, when given)."""
    with EngineFile(str(path), "r") as f:
        return [
            {
                n: [
                    {k: v for k, v in ds.partition(r).to_json().items() if keys is None or k in keys}
                    for r in range(NRANKS)
                ]
                for n, ds in ((n, f[f"{step_group(t)}/{n}"]) for n in FIELDS)
            }
            for t in range(n_steps)
        ]


def _stream(path, **open_kwargs):
    """Stream the planted-jump series; returns the step results and tables."""
    series = _series()
    with open_series_file(path, series, FIELDS, nranks=NRANKS, **open_kwargs) as f:
        results = [f.append_step(_jump_step(series, t)) for t in range(N_STEPS)]
    return results, _tables(path, N_STEPS)


def _reserved_at(ratio, predicted, region):
    """The slot Eq. (3) gives a float32 partition at ``ratio``."""
    original = 4 * math.prod(b - a for a, b in region)
    boost = effective_extra_space(ratio, original / predicted)
    return -(-math.ceil(predicted * boost) // 8) * 8


def _expected_ratio(actual, before):
    """The rule, spelled out: clamp(1 + 2 * miss, 1.1, Rspace)."""
    return min(max(1.0 + 2.0 * abs(actual - before) / before, EXTRA_SPACE_MIN), CEILING)


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One planted-jump stream per strategy, written on first use:
    ``(path, step results, tables)``."""
    cache = {}

    def get(strategy):
        if strategy not in cache:
            path = tmp_path_factory.mktemp(strategy) / "jump.phd5"
            cache[strategy] = (path, *_stream(path, strategy=strategy))
        return cache[strategy]

    return get


class TestRule:
    def test_no_observed_miss_keeps_the_configured_ratio(self):
        actual = [{"a": 100, "b": 200}, {"a": 50, "b": 60}]
        assert warm_slot_ratios(actual, None, 1.3) == [{"a": 1.3, "b": 1.3}] * 2

    def test_ratio_follows_the_miss_between_floor_and_ceiling(self):
        actual = [{"small": 1010, "mid": 1080, "big": 1500, "shrunk": 900}]
        previous = [{"small": 1000, "mid": 1000, "big": 1000, "shrunk": 1000}]
        (ratios,) = warm_slot_ratios(actual, previous, 1.25)
        assert ratios["small"] == EXTRA_SPACE_MIN
        assert ratios["mid"] == pytest.approx(1.16)
        assert ratios["big"] == 1.25
        assert ratios["shrunk"] == pytest.approx(1.2)

    def test_floor_configuration_is_a_fixed_ratio(self):
        actual = [{"a": 1010, "b": 3000}]
        previous = [{"a": 1000, "b": 1000}]
        assert warm_slot_ratios(actual, previous, EXTRA_SPACE_MIN) == [
            {"a": EXTRA_SPACE_MIN, "b": EXTRA_SPACE_MIN}
        ]


class TestStreamedSlots:
    def test_cold_and_first_warm_step_use_the_configured_ratio(self, streamed):
        _, results, tables = streamed("reorder")
        assert [r.warm_started for r in results[:2]] == [False, True]
        for t in (0, 1):
            for rank, stats in enumerate(results[t].stats):
                for n in FIELDS:
                    part = tables[t][n][rank]
                    want = _reserved_at(CEILING, stats.predicted_nbytes[n], part["region"])
                    assert part["reserved"] == want, (t, n, rank)

    def test_later_warm_slots_follow_the_observed_miss(self, streamed):
        _, results, tables = streamed("reorder")
        at_floor = 0
        for t in range(2, N_STEPS):
            for rank, stats in enumerate(results[t].stats):
                for n in FIELDS:
                    actual = results[t - 1].stats[rank].actual_nbytes[n]
                    before = results[t - 2].stats[rank].actual_nbytes[n]
                    ratio = _expected_ratio(actual, before)
                    at_floor += ratio == EXTRA_SPACE_MIN
                    part = tables[t][n][rank]
                    want = _reserved_at(ratio, stats.predicted_nbytes[n], part["region"])
                    assert part["reserved"] == want, (t, n, rank, ratio)
        # The series drifts by a few percent a step: most slots sit at 1.1.
        assert at_floor > (N_STEPS - 2) * len(FIELDS) * NRANKS // 2

    def test_planted_jump_raises_that_fields_next_ratio_to_the_ceiling(self, streamed):
        _, results, tables = streamed("reorder")
        jumped = [s.overflow_nbytes[FIELDS[0]] for s in results[JUMP].stats]
        assert all(jumped), "the jump must overflow the noisy field's slots"
        for rank, stats in enumerate(results[JUMP + 1].stats):
            actual = results[JUMP].stats[rank].actual_nbytes
            before = results[JUMP - 1].stats[rank].actual_nbytes
            assert _expected_ratio(actual[FIELDS[0]], before[FIELDS[0]]) == CEILING
            assert _expected_ratio(actual[FIELDS[1]], before[FIELDS[1]]) < CEILING
            part = tables[JUMP + 1][FIELDS[0]][rank]
            want = _reserved_at(CEILING, stats.predicted_nbytes[FIELDS[0]], part["region"])
            assert part["reserved"] == want
            assert stats.overflow_nbytes[FIELDS[0]] == 0

    def test_floor_configuration_writes_the_fixed_ratio_file(self, tmp_path):
        """At ``extra_space_ratio=1.1`` every slot is a fixed 1.1, as when
        warm hints carried no ratios: the same table as a driver loop
        whose hints hold only sizes."""
        config = PipelineConfig(extra_space_ratio=EXTRA_SPACE_MIN)
        _, tables = _stream(tmp_path / "facade.phd5", config=config)

        series = _series()
        gen0 = series.snapshot_generator(0)
        codecs = {n: SZCompressor(bound=gen0.error_bound(n), mode="abs") for n in FIELDS}
        driver = RealDriver("reorder", config=config)
        regions = rank_regions(SHAPE, NRANKS)
        with EngineFile(str(tmp_path / "driver.phd5"), "w") as ef:
            prev = None
            for t in range(N_STEPS):
                payload = rank_payload(_jump_step(series, t), SHAPE, regions)
                hints = None if prev is None else [
                    (dict(s.actual_nbytes), list(s.order)) for s in prev
                ]
                prev = driver.write(ef, payload, SHAPE, codecs, group=step_group(t), hints=hints)
        assert _tables(tmp_path / "driver.phd5", N_STEPS) == tables

    def test_rejected_step_does_not_feed_the_miss_history(self, streamed, tmp_path):
        """A step the codec rejects leaves every later slot as it was; only
        the offsets may move, past what the rejected step wrote."""
        clean, _, _ = streamed("reorder")
        keys = {"reserved", "actual", "overflow_nbytes", "region"}
        series = _series()
        path = tmp_path / "rejected.phd5"
        with open_series_file(path, series, FIELDS, nranks=NRANKS, strategy="reorder") as f:
            for t in range(N_STEPS):
                if t == 3:
                    bad = _jump_step(series, 2)
                    bad[FIELDS[1]] = bad[FIELDS[1]] * np.float32(3.0)
                    bad[FIELDS[1]][0, 0, 0] = np.nan
                    with pytest.raises(CompressionError):
                        f.append_step(bad)
                f.append_step(_jump_step(series, t))
        assert _tables(path, N_STEPS, keys) == _tables(clean, N_STEPS, keys)


@pytest.mark.parametrize("strategy", ["overlap", "reorder"])
def test_planted_jump_stream_reads_back_within_bound(streamed, strategy):
    """Slots overflow in the cold step and at the jump; every step of
    every field still reads back within its bound."""
    path, results, _ = streamed(strategy)
    overflowed = [sum(v > 0 for s in r.stats for v in s.overflow_nbytes.values()) for r in results]
    assert overflowed[0] > 0 and overflowed[JUMP] > 0, overflowed
    series = _series()
    gen0 = series.snapshot_generator(0)
    with repro.open(str(path), "r") as f:
        for t in range(N_STEPS):
            for n, want in _jump_step(series, t).items():
                err = np.max(np.abs(f[n][t].astype(np.float64) - want))
                assert err <= gen0.error_bound(n) * (1 + 1e-6), (strategy, t, n)
