"""Integration tests: the real thread pipeline against a real PHD5 file.

These exercise the paper's full functional path end to end — prediction,
one all-gather, identical offset tables on every rank, overlapped async
writes, overflow redirection, and a shared file that reads back within the
error bounds — all through ``RealDriver.write``, the one collective write
every production caller uses.
"""

import hashlib

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.core import STRATEGIES, PipelineConfig, RealDriver
from repro.data import NyxGenerator
from repro.data.partition import rank_payload, rank_regions
from repro.hdf5 import File, FileAccessProps
from repro.mpi import run_spmd

SHAPE = (32, 32, 32)
NRANKS = 4


def _setup(seed=21, bound_scale=1.0, fields=None, slabs=False):
    gen = NyxGenerator(SHAPE, seed=seed)
    names = list(fields or gen.field_names[:4])
    codecs = {
        n: SZCompressor(bound=gen.error_bound(n) * bound_scale, mode="abs") for n in names
    }
    payload = rank_payload(
        {n: gen.field(n) for n in names}, SHAPE, rank_regions(SHAPE, NRANKS, slabs=slabs)
    )
    return gen, names, codecs, payload


def _write(path, strategy, payload, codecs, config=None):
    with File(str(path), "w", fapl=FileAccessProps(async_io=True, async_workers=4)) as f:
        return RealDriver(strategy, config=config).write(f, payload, SHAPE, codecs)


def _run_predictive(tmp_path, config=None, bound_scale=1.0, seed=21):
    gen, names, codecs, payload = _setup(seed=seed, bound_scale=bound_scale)
    path = str(tmp_path / "pred.phd5")
    stats = _write(path, "reorder", payload, codecs, config)
    return gen, names, codecs, path, stats


def _assert_within_bounds(path, gen, names, codecs):
    with File(path, "r") as f:
        for name in names:
            out = f[f"fields/{name}"].read()
            bound = codecs[name].quantizer.requested_bound
            err = np.max(np.abs(out.astype(np.float64) - gen.field(name)))
            assert err <= bound * (1 + 1e-6), name


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_write_equals_hand_rolled_spmd_over_run(tmp_path, strategy):
    """``RealDriver.write`` is nothing but ``run`` on every rank: the file
    it produces is byte-identical to a hand-rolled ``run_spmd`` loop over
    ``RealDriver.run``, and the per-rank stats are equal."""
    driver = RealDriver(strategy)
    gen, names, codecs, payload = _setup(seed=26, slabs=not driver.strategy.compresses)
    fapl = FileAccessProps(async_io=True, async_workers=4)
    digests, all_stats = [], []
    for leaf in ("write.phd5", "spmd.phd5"):
        path = str(tmp_path / leaf)
        with File(path, "w", fapl=fapl) as f:
            if leaf == "write.phd5":
                stats = driver.write(f, payload, SHAPE, codecs)
            else:

                def rank_fn(comm):
                    local, region = payload[comm.rank]
                    return driver.run(comm, f, local, region, SHAPE, codecs)

                stats = run_spmd(NRANKS, rank_fn)
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
        all_stats.append(stats)
    assert digests[0] == digests[1]
    assert all_stats[0] == all_stats[1]
    assert [s.rank for s in all_stats[0]] == list(range(NRANKS))


class TestPredictivePipeline:
    def test_file_reads_back_within_bounds(self, tmp_path):
        gen, names, codecs, path, stats = _run_predictive(tmp_path)
        _assert_within_bounds(path, gen, names, codecs)

    def test_all_ranks_agree_on_predictions(self, tmp_path):
        gen, names, codecs, path, stats = _run_predictive(tmp_path)
        assert len(stats) == NRANKS
        for s in stats:
            assert set(s.predicted_nbytes) == set(names)
            assert all(v > 0 for v in s.actual_nbytes.values())

    def test_reordering_produces_permutation(self, tmp_path):
        """``reorder`` runs Algorithm 1: every rank's order is a
        permutation of the fields."""
        _, names, codecs, payload = _setup()
        for s in _write(tmp_path / "reorder.phd5", "reorder", payload, codecs):
            assert sorted(s.order) == sorted(names)

    def test_no_reorder_keeps_original_order(self, tmp_path):
        """``overlap`` is ``reorder`` without Algorithm 1: every rank
        compresses in insertion order."""
        _, names, codecs, payload = _setup()
        for s in _write(tmp_path / "overlap.phd5", "overlap", payload, codecs):
            assert s.order == names

    def test_overflow_path_exercised_and_correct(self, tmp_path):
        """At Rspace=1.1 with a high-ratio config, some partitions overflow
        (paper: 32.4% at 1.1x) — and the file must still be exact."""
        gen, names, codecs, path, stats = _run_predictive(
            tmp_path,
            config=PipelineConfig(extra_space_ratio=1.1),
            bound_scale=50.0,  # extreme ratio -> weakest prediction accuracy
            seed=33,
        )
        assert sum(s.total_overflow for s in stats) > 0
        _assert_within_bounds(path, gen, names, codecs)

    def test_partition_metadata_persisted(self, tmp_path):
        gen, names, codecs, path, stats = _run_predictive(tmp_path)
        with File(path, "r") as f:
            ds = f[f"fields/{names[0]}"]
            assert ds.n_partitions == NRANKS
            for r in range(NRANKS):
                entry = ds.partition(r)
                assert entry.actual > 0
                assert entry.reserved >= 0


class TestFilterPipeline:
    def test_roundtrip(self, tmp_path):
        gen, names, codecs, payload = _setup(seed=22)
        path = str(tmp_path / "filt.phd5")
        _write(path, "filter", payload, codecs)
        _assert_within_bounds(path, gen, names, codecs)

    def test_no_overflow_by_construction(self, tmp_path):
        gen, names, codecs, payload = _setup(seed=23)
        stats = _write(tmp_path / "filt2.phd5", "filter", payload, codecs)
        assert all(s.total_overflow == 0 for s in stats)
        # Exact-size plan: what was planned is what was written.
        assert all(s.predicted_nbytes == s.actual_nbytes for s in stats)


class TestNocompPipeline:
    def test_raw_roundtrip(self, tmp_path):
        gen, names, _, payload = _setup(seed=24, slabs=True)
        path = str(tmp_path / "raw.phd5")
        _write(path, "nocomp", payload, None)
        with File(path, "r") as f:
            for name in names:
                assert np.array_equal(f[f"fields/{name}"].read(), gen.field(name))


class TestCrossValidation:
    def test_predictive_matches_filter_content(self, tmp_path):
        """Both write paths must produce byte-identical reconstructions
        (same codec, same data — layout differs, content must not)."""
        gen, names, codecs, payload = _setup(seed=25)
        path_a = str(tmp_path / "a.phd5")
        path_b = str(tmp_path / "b.phd5")
        _write(path_a, "reorder", payload, codecs)
        _write(path_b, "filter", payload, codecs)
        with File(path_a, "r") as fa2, File(path_b, "r") as fb2:
            for name in names:
                a = fa2[f"fields/{name}"].read()
                b = fb2[f"fields/{name}"].read()
                assert np.array_equal(a, b), name
