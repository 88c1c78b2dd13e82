"""Tests for the PHD5 inspection CLI."""

import pytest

from repro.compression import SZCompressor
from repro.hdf5 import DatasetCreateProps, File
from repro.hdf5.filters import FILTER_SZ
from repro.tools.inspect import main

from helpers import make_smooth_field


@pytest.fixture
def sample_file(tmp_path):
    path = str(tmp_path / "sample.phd5")
    data = make_smooth_field((8, 8))
    codec = SZCompressor(bound=1e-3, mode="abs")
    stream = codec.compress(data)
    with File(path, "w") as f:
        grp = f.create_group("fields")
        raw = grp.create_dataset("raw", shape=(8, 8))
        raw.write(data)
        dcpl = DatasetCreateProps(
            chunks=(8, 8), filters=((FILTER_SZ, {"bound": 1e-3, "mode": "abs"}),)
        )
        dec = grp.create_dataset("dec", shape=(8, 8), layout="declared", dcpl=dcpl)
        dec.declare_partitions([4096], [len(stream) + 8], regions=[[[0, 8], [0, 8]]])
        dec.write_partition(0, stream)
    return path, data


class TestStat:
    def test_accounting(self, sample_file, capsys):
        """The storage accounting is the summary's: stored and overflow
        bytes per dataset, and a TOTAL row."""
        path, data = sample_file
        assert main(["summary", path, "--no-read-stats"]) == 0
        out = capsys.readouterr().out
        assert "engine driver-written" in out
        rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[2:]}
        assert set(rows) == {"fields/raw", "fields/dec", "TOTAL"}
        # Raw dataset stores exactly its logical bytes, with no overflow.
        stored, overflow, ratio = rows["fields/raw"][-3:]
        assert (int(stored), int(overflow), ratio) == (data.nbytes, 0, "1.00")
        dec_stored = int(rows["fields/dec"][-3])
        assert int(rows["TOTAL"][-3]) == data.nbytes + dec_stored

    def test_retired_subcommands_exit_2(self, sample_file):
        path, _ = sample_file
        for command in (["ls", path], ["stat", path], ["dump", path, "fields/raw"],
                        ["parts", path, "fields/dec"]):
            with pytest.raises(SystemExit) as exc:
                main(command)
            assert exc.value.code == 2
