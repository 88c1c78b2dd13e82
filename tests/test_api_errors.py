"""Facade error paths: every misuse raises a *typed* ReproError subclass
with an actionable message — never a bare KeyError/AttributeError."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from helpers import make_smooth_field
from repro.errors import (
    CompressionError,
    ConfigError,
    IncompleteWriteError,
    InvalidStateError,
    ObjectExistsError,
    ObjectNotFoundError,
    ReadOnlyError,
    ReproError,
    ShapeMismatchError,
    UnknownStrategyError,
    UnwrittenDataError,
)
from repro.hdf5 import File as EngineFile

SHAPE = (16, 12, 12)


@pytest.fixture
def data():
    return make_smooth_field(shape=SHAPE)


@pytest.fixture
def readonly(tmp_path, data):
    path = str(tmp_path / "ro.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("d", SHAPE, error_bound=1e-3, data=data)
    with repro.open(path) as f:
        yield f


def test_write_to_read_mode_file(readonly, data):
    with pytest.raises(ReadOnlyError, match="read-only"):
        readonly.create_dataset("y", SHAPE)
    with pytest.raises(ReadOnlyError, match="read-only"):
        readonly["d"][...] = data
    with pytest.raises(ReadOnlyError):
        readonly.create_group("g")
    with pytest.raises(ReadOnlyError):
        readonly.append_step({"d": data})
    assert isinstance(ReadOnlyError("x"), ReproError)


def test_unknown_strategy_name(tmp_path):
    with repro.open(str(tmp_path / "s.phd5"), "w") as f:
        with pytest.raises(UnknownStrategyError, match="registered strategies"):
            f.create_dataset("x", SHAPE, error_bound=1e-3, strategy="zorp")
    with pytest.raises(UnknownStrategyError):
        repro.open(str(tmp_path / "s2.phd5"), "w", strategy="bogus")
    assert isinstance(UnknownStrategyError("x"), ReproError)


def test_mismatched_region_shapes(tmp_path, data):
    with repro.open(str(tmp_path / "m.phd5"), "w") as f:
        ds = f.create_dataset("x", SHAPE, error_bound=1e-3)
        with pytest.raises(ShapeMismatchError, match="does not match"):
            ds[0:4, :, :] = np.zeros((5, 12, 12), np.float32)
        with pytest.raises(ShapeMismatchError, match="rank"):
            ds[0:4] = np.zeros((4,), np.float32)
        t = f.create_dataset("t", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        with pytest.raises(ShapeMismatchError, match="step array shape"):
            t[0] = np.zeros((3, 3), np.float32)
        with pytest.raises(ShapeMismatchError, match="time-axis fields"):
            f.append_step({"t": data, "extra": data})
        f.append_step({"t": data})
        ds[...] = data
    assert isinstance(ShapeMismatchError("x"), ReproError)


def test_read_before_any_write(tmp_path):
    with repro.open(str(tmp_path / "u.phd5"), "w") as f:
        ds = f.create_dataset("x", SHAPE, error_bound=1e-3)
        with pytest.raises(UnwrittenDataError, match="never been written"):
            ds[...]
        t = f.create_dataset("t", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        with pytest.raises(UnwrittenDataError, match="no steps"):
            t[...]
        with pytest.raises(UnwrittenDataError, match="not written"):
            t[0]
        # leave the file consistent for close()
        ds[...] = np.zeros(SHAPE, np.float32)
        f.append_step({"t": np.zeros(SHAPE, np.float32)})
    assert isinstance(UnwrittenDataError("x"), ReproError)


def test_incomplete_staging_read_and_close(tmp_path, data):
    f = repro.open(str(tmp_path / "i.phd5"), "w")
    ds = f.create_dataset("x", SHAPE, error_bound=1e-3)
    ds[0:8, :, :] = data[0:8]
    with pytest.raises(IncompleteWriteError, match="remaining region"):
        ds[...]
    with pytest.raises(IncompleteWriteError, match="do not cover"):
        f.close()
    ds[8:16, :, :] = data[8:16]
    f.close()  # now complete


def test_overlapping_regions(tmp_path, data):
    with repro.open(str(tmp_path / "o.phd5"), "w") as f:
        ds = f.create_dataset("x", SHAPE, error_bound=1e-3)
        ds[0:8, :, :] = data[0:8]
        with pytest.raises(InvalidStateError, match="overlaps"):
            ds[4:16, :, :] = data[4:16]
        ds[8:16, :, :] = data[8:16]


def test_write_once_after_flush(tmp_path, data):
    with repro.open(str(tmp_path / "w1.phd5"), "w") as f:
        ds = f.create_dataset("x", SHAPE, error_bound=1e-3, data=data)
        _ = ds[...]
        with pytest.raises(InvalidStateError, match="write-once"):
            ds[...] = data


def test_compressing_strategy_requires_bound(tmp_path):
    with repro.open(str(tmp_path / "c.phd5"), "w") as f:
        with pytest.raises(ConfigError, match="error_bound"):
            f.create_dataset("x", SHAPE, strategy="reorder")
        with pytest.raises(ConfigError, match="error_bound"):
            f.create_dataset("y", SHAPE, strategy="auto")
        with pytest.raises(ConfigError, match="time-axis"):
            f.create_dataset("t", SHAPE, maxshape=(None,) + SHAPE)


def test_out_of_order_steps(tmp_path, data):
    with repro.open(str(tmp_path / "t.phd5"), "w") as f:
        t = f.create_dataset("t", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        with pytest.raises(InvalidStateError, match="order"):
            t[1] = data
        t[0] = data


def test_misc_config_errors(tmp_path, data):
    path = str(tmp_path / "misc.phd5")
    with pytest.raises(ConfigError, match="nranks"):
        repro.open(path, "w", nranks=0)
    with repro.open(path, "w") as f:
        with pytest.raises(ConfigError, match="unlimited"):
            f.create_dataset("x", SHAPE, maxshape=(16, None, 12),
                             error_bound=1e-3)
        with pytest.raises(ConfigError, match="either extra_space_ratio"):
            f.create_dataset("y", SHAPE, error_bound=1e-3,
                             extra_space_ratio=1.2, performance_weight=0.5)
        with pytest.raises(ConfigError, match="pass shape"):
            f.create_dataset("z")
        f.create_dataset("ok", SHAPE, error_bound=1e-3,
                         data=data)
        with pytest.raises(ObjectExistsError):
            f.create_dataset("ok", SHAPE, error_bound=1e-3)
        with pytest.raises(ObjectNotFoundError):
            f["nope"]
        with pytest.raises(ConfigError, match="root"):
            f.create_dataset("grp/t", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)


def test_conflicting_time_axis_settings(tmp_path, data):
    with repro.open(str(tmp_path / "conf.phd5"), "w") as f:
        f.create_dataset("a", SHAPE, maxshape=(None,) + SHAPE,
                         error_bound=1e-3, strategy="reorder")
        f.create_dataset("b", SHAPE, maxshape=(None,) + SHAPE,
                         error_bound=1e-3, strategy="overlap")
        with pytest.raises(ConfigError, match="conflicting strategies"):
            f.append_step({"a": data, "b": data})
        # Series shape must agree across time-axis datasets.
        with pytest.raises(ShapeMismatchError, match="series shape"):
            f.create_dataset("c", (4, 4, 4), maxshape=(None, 4, 4, 4),
                             error_bound=1e-3)


def test_comm_mode_restrictions(tmp_path):
    """The facade manages its own ranks: there is no caller-managed
    ``comm=`` mode to open a file in."""
    from repro.mpi import run_spmd

    path = str(tmp_path / "cm.phd5")

    def rank_fn(comm):
        try:
            repro.open(path, "w", comm=comm)
        except TypeError as exc:
            return "comm" in str(exc)

    assert run_spmd(2, rank_fn) == [True, True]
    with pytest.raises(TypeError):
        repro.File(path, "w", comm=None)
    assert not (tmp_path / "cm.phd5").exists()


def test_exception_in_with_block_is_not_masked(tmp_path, data):
    class Boom(RuntimeError):
        pass

    with pytest.raises(Boom):
        with repro.open(str(tmp_path / "x.phd5"), "w") as f:
            ds = f.create_dataset("x", SHAPE, error_bound=1e-3)
            ds[0:8, :, :] = data[0:8]  # incomplete on purpose
            raise Boom()
    # The file was closed without raising IncompleteWriteError over Boom.


def test_append_step_without_time_datasets(tmp_path, data):
    with repro.open(str(tmp_path / "nt.phd5"), "w") as f:
        with pytest.raises(InvalidStateError, match="no time-axis"):
            f.append_step({"x": data})


def test_failed_flush_keeps_what_already_landed(tmp_path, data):
    """A batch the codec rejects (one NaN) raises from ``flush`` and leaves
    nothing behind: ``close`` still finalises the dataset flushed before,
    and the rejected name can be written again in the same session."""
    path = str(tmp_path / "nan.phd5")
    bad = data.copy()
    bad[3, 4, 5] = np.nan
    f = repro.open(path, "w", nranks=2)
    f.create_dataset("early", SHAPE, error_bound=1e-3, data=data)
    f.flush()
    f.create_dataset("bad", SHAPE, error_bound=1e-3, data=bad)
    with pytest.raises(CompressionError):
        f.flush()
    assert "bad" not in f
    f.close()
    with repro.open(path) as g:
        assert "bad" not in g
        assert np.max(np.abs(g["early"][...] - data)) <= 1e-3
    with repro.open(str(tmp_path / "again.phd5"), "w", nranks=2) as f:
        f.create_dataset("bad", SHAPE, error_bound=1e-3, data=bad)
        with pytest.raises(CompressionError):
            f.flush()
        f.create_dataset("bad", SHAPE, error_bound=1e-3, data=data)
    with repro.open(str(tmp_path / "again.phd5")) as g:
        assert np.max(np.abs(g["bad"][...] - data)) <= 1e-3


def _step_file(path, data):
    """A two-field time-axis file whose step 0 has landed."""
    f = repro.open(path, "w", nranks=2)
    for name in ("a", "b"):
        f.create_dataset(name, SHAPE, np.float32, maxshape=(None, *SHAPE), error_bound=1e-3)
    f.append_step({"a": data, "b": data})
    return f


def test_rejected_step_does_not_wedge_the_stream(tmp_path, data):
    """A step the codec rejects (one NaN) raises from ``append_step`` and
    leaves no ``steps/NNNN`` behind, so the same step can be appended
    again and the closed file holds exactly the steps that landed."""
    path = str(tmp_path / "steps.phd5")
    bad = data.copy()
    bad[3, 4, 5] = np.nan
    f = _step_file(path, data)
    with pytest.raises(CompressionError):
        f.append_step({"a": data, "b": bad})
    assert f.steps_written == 1
    f.append_step({"a": data, "b": data + 1})
    f.close()
    with repro.open(path) as g:
        assert g["a"].shape[0] == g["b"].shape[0] == 2
        for t, ref in enumerate((data, data + 1)):
            assert np.max(np.abs(g["a"][t] - data)) <= 1e-3
            assert np.max(np.abs(g["b"][t] - ref)) <= 1e-3


def test_abandoned_rejected_step_leaves_no_trace(tmp_path, data):
    """Closing right after a rejected step finalises only the landed step:
    the engine file lists no group or dataset of the rejected one."""
    path = str(tmp_path / "steps.phd5")
    bad = data.copy()
    bad[3, 4, 5] = np.nan
    f = _step_file(path, data)
    with pytest.raises(CompressionError):
        f.append_step({"a": bad, "b": data})
    f.close()
    with EngineFile(path, "r") as ef:
        paths = [p for p, _ in ef.root.visit()]
    assert "/steps/0000/a" in paths
    assert not [p for p in paths if p.startswith("/steps/0001")]
    with repro.open(path) as g:
        assert g["a"].shape[0] == 1
        assert np.max(np.abs(g["b"][0] - data)) <= 1e-3
