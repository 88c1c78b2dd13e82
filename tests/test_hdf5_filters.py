"""Tests for the SZ filter and the declared dataset layout."""

import json
import struct

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.errors import FileFormatError, FilterError, HDF5Error, InvalidStateError
from repro.hdf5 import (
    FILTER_SZ,
    Dataset,
    DatasetCreateProps,
    File,
    FilterPipeline,
)

from helpers import make_smooth_field

SZ_ABS = {"bound": 1e-3, "mode": "abs"}


class TestFilterPipeline:
    def test_sz_filter_bound(self):
        pipe = FilterPipeline(((FILTER_SZ, SZ_ABS),))
        data = make_smooth_field((12, 12, 12))
        out = pipe.invert_many([SZCompressor(**SZ_ABS).compress(data)], [data.shape])[0]
        assert np.max(np.abs(out - data)) <= 1e-3

    def test_unknown_filter_id(self):
        with pytest.raises(FilterError, match="99999"):
            FilterPipeline(((99999, {}),))

    def test_one_filter_at_most(self):
        with pytest.raises(FilterError, match="32017"):
            FilterPipeline(((FILTER_SZ, SZ_ABS), (FILTER_SZ, SZ_ABS)))

    def test_options_sz_refuses(self):
        with pytest.raises(FilterError, match="invalid SZ options"):
            FilterPipeline(((FILTER_SZ, {"rate": 8}),))
        with pytest.raises(FilterError, match="invalid SZ options"):
            FilterPipeline(((FILTER_SZ, {"bound": -1.0}),))

    def test_empty_pipeline(self):
        pipe = FilterPipeline()
        assert not pipe and pipe.sz_options is None
        assert pipe.to_json() == []

    def test_invert_shape_mismatch(self):
        pipe = FilterPipeline(((FILTER_SZ, SZ_ABS),))
        data = make_smooth_field((4, 6))
        with pytest.raises(FilterError, match="wrong shape"):
            pipe.invert_many([SZCompressor(**SZ_ABS).compress(data)], [(6, 4)])

    def test_array_filter_must_return_one_array_per_payload(self, monkeypatch):
        decompress_many = SZCompressor.decompress_many
        monkeypatch.setattr(
            SZCompressor, "decompress_many", lambda self, p: decompress_many(self, p)[1:]
        )
        pipe = FilterPipeline(((FILTER_SZ, SZ_ABS),))
        data = make_smooth_field((12, 12, 12))
        stream = SZCompressor(**SZ_ABS).compress(data)
        with pytest.raises(FilterError, match="returned 1 arrays for 2 payloads"):
            pipe.invert_many([stream] * 2, [data.shape] * 2)

    def test_json_roundtrip(self):
        pipe = FilterPipeline(((FILTER_SZ, {"bound": 0.01, "mode": "rel"}),))
        assert pipe.to_json() == [[32017, {"bound": 0.01, "mode": "rel"}]]
        restored = FilterPipeline.from_json(pipe.to_json())
        assert restored.sz_options == pipe.sz_options
        assert FilterPipeline.from_json([]).to_json() == []


def _patch_footer_filters(path, filters):
    """Rewrite dataset ``/d``'s footer ``filters`` entry in place."""
    header = struct.Struct("<4sHxxQQ")  # magic, version, footer_ptr, footer_len
    with open(path, "r+b") as raw:
        magic, version, ptr, nbytes = header.unpack(raw.read(header.size))
        raw.seek(ptr)
        footer = json.loads(raw.read(nbytes))
        footer["datasets"]["/d"]["filters"] = filters
        blob = json.dumps(footer).encode()
        raw.seek(ptr)
        raw.write(blob)
        raw.truncate()
        raw.seek(0)
        raw.write(header.pack(magic, version, ptr, len(blob)))


class TestFooterFilters:
    """A footer's ``filters`` comes from outside the program: a malformed
    entry is a format error, an id other than SZ's (ZFP's 32013, deflate's
    1, a second filter) a filter error naming it — never a bare
    ValueError/IndexError/TypeError, and never a quiet open."""

    @pytest.fixture
    def written(self, tmp_path):
        data = make_smooth_field((8, 8))
        path = str(tmp_path / "ff.phd5")
        dcpl = DatasetCreateProps(chunks=(8, 8), filters=((FILTER_SZ, SZ_ABS),))
        with File(path, "w") as f:
            ds = f.create_dataset("d", shape=(8, 8), layout="declared", dcpl=dcpl)
            stream = SZCompressor(**SZ_ABS).compress(data)
            ds.declare_partitions([4096], [len(stream)], regions=[[[0, 8], [0, 8]]])
            ds.write_partition(0, stream)
        return path, data

    def test_patched_sz_entry_reads(self, written):
        path, data = written
        _patch_footer_filters(path, [[FILTER_SZ, SZ_ABS]])
        with File(path, "r") as f:
            assert np.max(np.abs(f["d"].read() - data)) <= 1e-3

    @pytest.mark.parametrize(
        "filters, error, match",
        [
            ([["sz"]], FileFormatError, "malformed"),
            ([[32017]], FileFormatError, "malformed"),
            ([[32017, 5]], FileFormatError, "malformed"),
            ([["x", {}]], FileFormatError, "malformed"),
            ("oops", FileFormatError, "malformed"),
            ([[32013, {"rate": 8}]], FilterError, "32013"),
            ([[1, {}]], FilterError, r"\[1\]"),
            ([[32017, SZ_ABS], [1, {"level": 4}]], FilterError, r"\[32017, 1\]"),
        ],
        ids=[
            "id-only-name", "id-only", "options-not-dict", "id-not-int", "not-a-list",
            "zfp", "deflate", "sz-then-deflate",
        ],
    )
    def test_bad_entry_fails_on_open(self, written, filters, error, match):
        path, _ = written
        _patch_footer_filters(path, filters)
        with pytest.raises(error, match=match):
            File(path, "r")


class TestChunkedDataset:
    def test_filters_require_chunks(self):
        with pytest.raises(Exception):
            DatasetCreateProps(filters=((FILTER_SZ, SZ_ABS),))

    def test_chunked_layout_is_refused(self, tmp_path):
        """Chunks/filters describe declared datasets only: a contiguous one
        refuses them instead of storing unfiltered bytes, and a footer that
        says ``"chunked"`` is an unknown layout."""
        dcpl = DatasetCreateProps(chunks=(8, 8), filters=((FILTER_SZ, SZ_ABS),))
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
