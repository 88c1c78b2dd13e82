"""Tests for the filter pipeline and the declared dataset layout."""

import numpy as np
import pytest

from repro.errors import FileFormatError, FilterError, HDF5Error, InvalidStateError
from repro.hdf5 import (
    FILTER_DEFLATE,
    FILTER_SHUFFLE,
    FILTER_SZ,
    FILTER_ZFP,
    Dataset,
    DatasetCreateProps,
    File,
    FilterPipeline,
    FilterSpec,
    available_filters,
)

from helpers import make_smooth_field


class TestFilterPipeline:
    def test_builtin_registry(self):
        names = available_filters()
        assert names[FILTER_SZ] == "sz"
        assert names[FILTER_ZFP] == "zfp"
        assert names[FILTER_DEFLATE] == "deflate"
        assert names[FILTER_SHUFFLE] == "shuffle"

    def test_deflate_roundtrip(self):
        pipe = FilterPipeline((FilterSpec(FILTER_DEFLATE, {"level": 6}),))
        # Quantized data deflates well; raw float noise would not.
        data = np.round(make_smooth_field((32, 32), noise=0.0), 2).astype(np.float32)
        payload = pipe.apply(data)
        out = pipe.invert_many([payload], [data.shape], "<f4")[0]
        assert np.array_equal(out, data)
        assert len(payload) < data.nbytes

    def test_shuffle_deflate_chain(self):
        pipe = FilterPipeline(
            (FilterSpec(FILTER_SHUFFLE, {"itemsize": 4}), FilterSpec(FILTER_DEFLATE, {}))
        )
        data = make_smooth_field((16, 16))
        out = pipe.invert_many([pipe.apply(data)], [data.shape], "<f4")[0]
        assert np.array_equal(out, data)

    def test_sz_filter_bound(self):
        pipe = FilterPipeline((FilterSpec(FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),))
        data = make_smooth_field((12, 12, 12))
        out = pipe.invert_many([pipe.apply(data)], [data.shape], "<f4")[0]
        assert np.max(np.abs(out - data)) <= 1e-3

    def test_sz_then_deflate(self):
        pipe = FilterPipeline(
            (FilterSpec(FILTER_SZ, {"bound": 1e-3, "mode": "abs"}), FilterSpec(FILTER_DEFLATE, {}))
        )
        data = make_smooth_field((12, 12, 12))
        out = pipe.invert_many([pipe.apply(data)], [data.shape], "<f4")[0]
        assert np.max(np.abs(out - data)) <= 1e-3

    def test_zfp_filter(self):
        pipe = FilterPipeline((FilterSpec(FILTER_ZFP, {"rate": 16}),))
        data = make_smooth_field((8, 8), dtype=np.float64)
        out = pipe.invert_many([pipe.apply(data)], [data.shape], "<f8")[0]
        assert out.shape == data.shape

    def test_array_filter_must_be_first(self):
        with pytest.raises(FilterError):
            FilterPipeline(
                (FilterSpec(FILTER_DEFLATE, {}), FilterSpec(FILTER_SZ, {"bound": 1e-3}))
            )

    def test_unknown_filter_id(self):
        with pytest.raises(FilterError):
            FilterPipeline((FilterSpec(99999, {}),))

    def test_empty_pipeline_raw_bytes(self):
        pipe = FilterPipeline()
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        payload = pipe.apply(data)
        assert payload == data.tobytes()
        out = pipe.invert_many([payload], [(2, 3)], "<f4")[0]
        assert np.array_equal(out, data)

    def test_invert_length_mismatch(self):
        pipe = FilterPipeline()
        with pytest.raises(FilterError):
            pipe.invert_many([b"\x00" * 7], [(2,)], "<f4")

    def test_array_filter_must_return_one_array_per_payload(self, monkeypatch):
        from repro.hdf5 import filters, register_filter

        monkeypatch.setattr(filters, "_REGISTRY", dict(filters._REGISTRY))
        sz = filters._REGISTRY[FILTER_SZ]
        register_filter(65001, "sz_short", "array", sz.apply, lambda p, o: sz.invert(p, o)[1:])
        pipe = FilterPipeline((FilterSpec(65001, {"bound": 1e-3, "mode": "abs"}),))
        data = make_smooth_field((12, 12, 12))
        with pytest.raises(FilterError, match="returned 1 arrays for 2 payloads"):
            pipe.invert_many([pipe.apply(data)] * 2, [data.shape] * 2, "<f4")

    def test_json_roundtrip(self):
        pipe = FilterPipeline(
            (
                FilterSpec(FILTER_SZ, {"bound": 0.01, "mode": "rel"}),
                FilterSpec(FILTER_DEFLATE, {"level": 2}),
            )
        )
        restored = FilterPipeline.from_json(pipe.to_json())
        assert restored.specs == pipe.specs


class TestChunkedDataset:
    def test_filters_require_chunks(self):
        with pytest.raises(Exception):
            DatasetCreateProps(filters=((FILTER_DEFLATE, {}),))

    def test_chunked_layout_is_refused(self, tmp_path):
        """Chunks/filters describe declared datasets only: a contiguous one
        refuses them instead of storing unfiltered bytes, and a footer that
        says ``"chunked"`` is an unknown layout."""
        dcpl = DatasetCreateProps(chunks=(8, 8), filters=((FILTER_DEFLATE, {}),))
        with File(str(tmp_path / "cl.phd5"), "w") as f:
            with pytest.raises(HDF5Error, match="layout='declared'"):
                f.create_dataset("d", shape=(8, 8), dcpl=dcpl)
            with pytest.raises(HDF5Error, match="layout='declared'"):
                f.create_dataset("d", shape=(8, 8), dcpl=DatasetCreateProps(chunks=(8, 8)))
            assert "d" not in f
            blob = f.create_dataset("e", shape=(8, 8), layout="declared", dcpl=dcpl).to_json()
            with pytest.raises(HDF5Error, match="unknown layout 'chunked'"):
                Dataset.from_json(f, "/x", blob | {"layout": "chunked"})

class TestDeclaredDataset:
    def _make_declared(self, f, data, reserved_scale=2.0):
        from repro.compression import SZCompressor

        codec = SZCompressor(bound=1e-3, mode="abs")
        streams = [codec.compress(data[i : i + 4]) for i in range(0, 8, 4)]
        reserved = [int(len(s) * reserved_scale) for s in streams]
        base = 4096
        offsets = [base, base + reserved[0]]
        dcpl = DatasetCreateProps(
            chunks=(4, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
        )
        ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
        ds.declare_partitions(
            offsets, reserved, regions=[[[0, 4], [0, 8]], [[4, 8], [0, 8]]]
        )
        return ds, streams

    def test_declared_write_read_roundtrip(self, tmp_path):
        data = make_smooth_field((8, 8))
        path = str(tmp_path / "dec.phd5")
        with File(path, "w") as f:
            ds, streams = self._make_declared(f, data)
            for i, s in enumerate(streams):
                assert ds.write_partition(i, s) == 0
        with File(path, "r") as f:
            out = f["d"].read()
            assert np.max(np.abs(out - data)) <= 1e-3

    def test_overflow_path(self, tmp_path):
        data = make_smooth_field((8, 8))
        path = str(tmp_path / "ovf.phd5")
        with File(path, "w") as f:
            ds, streams = self._make_declared(f, data, reserved_scale=0.5)
            tails = {}
            for i, s in enumerate(streams):
                n_over = ds.write_partition(i, s)
                assert n_over > 0
                tails[i] = s[len(s) - n_over :]
            # Overflow region starts at the declared end; prefix-sum layout.
            base = ds.partition(1).offset + ds.partition(1).reserved
            off = base
            for i, tail in tails.items():
                ds.write_partition_overflow(i, tail, off)
                off += len(tail)
        with File(path, "r") as f:
            out = f["d"].read()
            assert np.max(np.abs(out - data)) <= 1e-3

    def test_overflow_tail_size_validated(self, tmp_path):
        data = make_smooth_field((8, 8))
        with File(str(tmp_path / "otv.phd5"), "w") as f:
            ds, streams = self._make_declared(f, data, reserved_scale=0.5)
            ds.write_partition(0, streams[0])
            with pytest.raises(HDF5Error):
                ds.write_partition_overflow(0, b"wrong-size", 10**6)

    def test_missing_overflow_detected_on_read(self, tmp_path):
        data = make_smooth_field((8, 8))
        with File(str(tmp_path / "mo.phd5"), "w") as f:
            ds, streams = self._make_declared(f, data, reserved_scale=0.5)
            ds.write_partition(0, streams[0])
            with pytest.raises(FileFormatError):
                ds.read_partition(0)

    def test_overlapping_slots_rejected(self, tmp_path):
        with File(str(tmp_path / "ov.phd5"), "w") as f:
            ds = f.create_dataset("d", shape=(8,), layout="declared")
            with pytest.raises(HDF5Error):
                ds.declare_partitions([100, 150], [100, 100])

    def test_idempotent_redeclaration(self, tmp_path):
        with File(str(tmp_path / "re2.phd5"), "w") as f:
            ds = f.create_dataset("d", shape=(8,), layout="declared")
            ds.declare_partitions([100, 300], [100, 100])
            ds.declare_partitions([100, 300], [100, 100])  # same table: fine
            with pytest.raises(HDF5Error):
                ds.declare_partitions([100, 300], [100, 200])

    def test_unwritten_partition_read_rejected(self, tmp_path):
        with File(str(tmp_path / "up.phd5"), "w") as f:
            ds = f.create_dataset("d", shape=(8,), layout="declared")
            ds.declare_partitions([100], [100])
            with pytest.raises(InvalidStateError):
                ds.read_partition(0)

    def test_partition_table_persists(self, tmp_path):
        path = str(tmp_path / "pt.phd5")
        data = make_smooth_field((8, 8))
        with File(path, "w") as f:
            ds, streams = self._make_declared(f, data)
            for i, s in enumerate(streams):
                ds.write_partition(i, s)
        with File(path, "r") as f:
            ds = f["d"]
            assert ds.n_partitions == 2
            assert ds.partition(0).actual == len(streams[0])
            assert ds.partition(1).reserved == 2 * len(streams[1])
