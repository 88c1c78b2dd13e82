"""Tests for per-partition read-back through the engine dataset.

Each rank of a predictively written snapshot locates its own partition
through the declared-partition table and decodes it independently
(``hdf5.Dataset.read_region`` over its recorded region); ``Dataset.read``
reassembles the same partitions into the global array.
"""

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.core.pipeline import RealDriver
from repro.data import NyxGenerator, grid_partition
from repro.data.partition import rank_payload, rank_regions
from repro.errors import HDF5Error
from repro.hdf5 import File, FileAccessProps

SHAPE = (24, 24, 24)
NRANKS = 4


@pytest.fixture
def written_file(tmp_path):
    gen = NyxGenerator(SHAPE, seed=31)
    names = list(gen.field_names[:3])
    parts = grid_partition(SHAPE, NRANKS)
    codecs = {n: SZCompressor(bound=gen.error_bound(n), mode="abs") for n in names}
    payload = rank_payload({n: gen.field(n) for n in names}, SHAPE, rank_regions(SHAPE, NRANKS))
    path = str(tmp_path / "snap.phd5")
    with File(path, "w", fapl=FileAccessProps(async_io=True)) as f:
        RealDriver("reorder").write(f, payload, SHAPE, codecs)
    return path, gen, names, parts


class TestParallelRead:
    def test_single_partition_helper(self, written_file):
        path, gen, names, parts = written_file
        with File(path, "r") as f:
            ds = f[f"fields/{names[0]}"]
            block = ds.read_region(parts[2].slices)
            expected = parts[2].extract(gen.field(names[0]))
            assert block.shape == expected.shape
            err = np.max(np.abs(block.astype(np.float64) - expected))
            assert err <= gen.error_bound(names[0]) * (1 + 1e-6)

    def test_requires_declared_layout(self, tmp_path):
        path = str(tmp_path / "raw.phd5")
        with File(path, "w") as f:
            ds = f.create_dataset("d", shape=(4,))
            ds.write(np.zeros(4, np.float32))
            with pytest.raises(HDF5Error):
                ds.read_partition(0)


class TestReaderEdgeCases:
    """Regressions surfaced by round-trip certification (verify subsystem)."""

    @staticmethod
    def _write(path, regions, shape, data, bound=1e-3, strategy="reorder"):
        codecs = {"a": SZCompressor(bound=bound, mode="abs")}
        payload = rank_payload({"a": data}, shape, regions)
        with File(path, "w", fapl=FileAccessProps(async_io=True)) as f:
            RealDriver(strategy).write(f, payload, shape, codecs)

    def test_zero_size_rank_partition_roundtrip(self, tmp_path):
        """A rank with an empty share writes and reads back cleanly."""
        shape = (4, 4)
        data = np.random.default_rng(7).normal(0, 1, shape).astype(np.float32)
        regions = [[[0, 4], [0, 4]], [[4, 4], [0, 4]]]  # rank 1 owns nothing
        path = str(tmp_path / "zero.phd5")
        self._write(path, regions, shape, data)
        with File(path, "r") as f:
            ds = f["fields/a"]
            assert np.max(np.abs(ds.read() - data)) <= 1e-3 * (1 + 1e-6)
            empty = SZCompressor(bound=1e-3, mode="abs").decompress(ds.read_partition(1))
            assert empty.shape == (0, 4)
            assert empty.dtype == np.float32
            assert ds.read_region((slice(4, 4), slice(0, 4))).shape == (0, 4)

    def test_final_rank_remainder_shapes(self, tmp_path):
        """Non-divisible axis splits (final-rank remainders) read back exactly
        per partition, including the smaller trailing blocks."""
        shape = (17, 11, 7)
        gen = np.random.default_rng(11)
        data = gen.normal(0, 1, shape).astype(np.float32)
        parts = grid_partition(shape, 5)
        path = str(tmp_path / "remainder.phd5")
        self._write(path, rank_regions(shape, 5), shape, data)
        with File(path, "r") as f:
            ds = f["fields/a"]
            for p in parts:
                block = ds.read_region(p.slices)
                expected = p.extract(data)
                assert block.shape == expected.shape
                assert np.max(np.abs(block - expected)) <= 1e-3 * (1 + 1e-6)

    def test_out_of_range_rank_is_a_clear_error(self, tmp_path):
        """Reading wider than the writer's decomposition names the mismatch."""
        shape = (8, 8)
        data = np.zeros(shape, np.float32)
        regions = [[[0, 4], [0, 8]], [[4, 8], [0, 8]]]
        path = str(tmp_path / "narrow.phd5")
        self._write(path, regions, shape, data)
        with File(path, "r") as f:
            with pytest.raises(HDF5Error, match="declares 2 partitions"):
                f["fields/a"].partition(2)

    def test_float64_fields_keep_their_dtype(self, tmp_path):
        """Dataset metadata records the field dtype instead of forcing f32."""
        shape = (8, 8)
        data = np.random.default_rng(3).normal(0, 1, shape)
        regions = [[[0, 4], [0, 8]], [[4, 8], [0, 8]]]
        path = str(tmp_path / "f64.phd5")
        self._write(path, regions, shape, data, bound=1e-6)
        with File(path, "r") as f:
            ds = f["fields/a"]
            assert ds.dtype == np.float64
            out = ds.read()
            assert out.dtype == np.float64
            assert np.max(np.abs(out - data)) <= 1e-6 * (1 + 1e-6)
