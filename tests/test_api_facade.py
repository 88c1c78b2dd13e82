"""The repro.open() facade: transparent routing through the engine.

Covers the tentpole behaviors: full and per-block assignments running the
predictive pipeline, multi-field collective batching, per-dataset setting
overrides, partial partition-aware reads, the streaming time axis (warm
starts, auto re-tuning), read-mode reconstruction, ``File.verify()``, and —
acceptance-critical — bit-identical parity between a facade-streamed
multi-field multi-step file and the same steps written by a plain loop of
``RealDriver.write`` calls.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from helpers import make_smooth_field
from repro.compression.sz import SZCompressor
from repro.core.config import PipelineConfig
from repro.core.pipeline import RealDriver
from repro.core.session import step_group
from repro.core.strategy import STRATEGIES
from repro.data.partition import grid_partition, rank_payload, rank_regions
from repro.data.timesteps import TimestepSeries
from repro.hdf5.file import File as EngineFile

SHAPE = (16, 12, 12)


def _field(seed=0, noise=0.01, shape=SHAPE):
    return make_smooth_field(shape=shape, noise=noise, seed=seed)


def test_top_level_exports():
    import repro.api as api

    assert repro.open is api.open
    assert repro.File is api.File
    assert repro.Dataset is api.Dataset
    for name in ("open", "File", "Group", "Dataset", "PipelineConfig"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_full_assignment_roundtrip(tmp_path):
    data = _field(1)
    path = str(tmp_path / "f.phd5")
    with repro.open(path, "w", nranks=4) as f:
        ds = f.create_dataset("fields/density", SHAPE, np.float32,
                              error_bound=1e-3)
        ds[...] = data
        assert np.abs(ds[...] - data).max() <= 1e-3 * (1 + 1e-6)
        assert len(ds.stats) == 4
        assert ds.shape == SHAPE and ds.dtype == np.float32
    with repro.open(path) as f:
        out = f["fields/density"][...]
        assert np.abs(out - data).max() <= 1e-3 * (1 + 1e-6)
        # Partial reads decode only intersecting partitions.
        assert np.array_equal(f["fields/density"][4:11, :, 2:9],
                              out[4:11, :, 2:9])
        # Integer axes collapse, numpy-style.
        assert f["fields/density"][3].shape == SHAPE[1:]
        attrs = f["fields/density"].attrs
        assert attrs["repro:strategy"] == "reorder"
        assert attrs["repro:error_bound"] == pytest.approx(1e-3)


def test_block_assignments_become_ranks_and_batch_collectively(tmp_path):
    fields = {f"f{i}": _field(i, noise=0.02) for i in range(3)}
    parts = grid_partition(SHAPE, 4)
    path = str(tmp_path / "b.phd5")
    with repro.open(path, "w") as f:
        dss = {n: f.create_dataset(f"fields/{n}", SHAPE, np.float32,
                                   error_bound=1e-3)
               for n in fields}
        for p in parts:
            for n, arr in fields.items():
                dss[n][p.slices] = arr[p.slices]
        f.flush()
        # One collective multi-field run: every dataset shares the same
        # per-rank stats object, and each rank saw all three fields.
        first = dss["f0"].stats
        assert all(dss[n].stats is first for n in fields)
        assert len(first) == len(parts)
        assert sorted(first[0].order) == sorted(fields)
        assert first[0].predicted_nbytes.keys() == fields.keys()
    with repro.open(path) as f:
        for n, arr in fields.items():
            assert np.abs(f[f"fields/{n}"][...] - arr).max() <= 1e-3 * (1 + 1e-6)
            assert f[f"fields/{n}"].attrs["repro:nranks"] == 4


def test_lossless_dataset_without_bound(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(10, 6)).astype(np.float64)
    path = str(tmp_path / "raw.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("exact", raw.shape, raw.dtype, data=raw)
    with repro.open(path) as f:
        ds = f["exact"]
        assert np.array_equal(ds[...], raw)
        assert ds.dtype == np.float64
        assert ds.attrs["repro:strategy"] == "nocomp"
        assert np.array_equal(ds[2:7, 1:4], raw[2:7, 1:4])


def test_per_dataset_overrides_split_batches(tmp_path):
    a, b = _field(0), _field(1)
    path = str(tmp_path / "o.phd5")
    with repro.open(path, "w", nranks=2) as f:
        da = f.create_dataset("a", SHAPE, error_bound=1e-3,
                              extra_space_ratio=1.1)
        db = f.create_dataset("b", SHAPE, error_bound=1e-2,
                              performance_weight=1.0, strategy="overlap",
                              nranks=4)
        da[...] = a
        db[...] = b
        f.flush()
        # Different strategy/config/nranks => separate collective runs.
        assert da.stats is not db.stats
        assert len(da.stats) == 2 and len(db.stats) == 4
    with repro.open(path) as f:
        assert np.abs(f["a"][...] - a).max() <= 1e-3 * (1 + 1e-6)
        assert np.abs(f["b"][...] - b).max() <= 1e-2 * (1 + 1e-6)
        assert f["b"].attrs["repro:strategy"] == "overlap"


def test_strategy_auto_snapshot_resolves_to_registered(tmp_path):
    data = _field(2)
    path = str(tmp_path / "auto.phd5")
    with repro.open(path, "w", nranks=4) as f:
        ds = f.create_dataset("d", SHAPE, error_bound=1e-3, strategy="auto")
        ds[...] = data
        f.flush()
        executed = ds.attrs["repro:strategy"]
        assert executed in STRATEGIES
    with repro.open(path) as f:
        assert np.abs(f["d"][...] - data).max() <= 1e-3 * (1 + 1e-6)


def test_filter_strategy_and_dataset_in_nested_group(tmp_path):
    data = _field(3)
    path = str(tmp_path / "n.phd5")
    with repro.open(path, "w") as f:
        grp = f.create_group("level0/level1")
        ds = grp.create_dataset("x", SHAPE, error_bound=1e-3,
                                strategy="filter")
        ds[...] = data
    with repro.open(path) as f:
        assert np.abs(f["level0/level1/x"][...] - data).max() <= 1e-3 * (1 + 1e-6)
        assert f["level0"]["level1/x"].name == "/level0/level1/x"


def test_time_axis_streaming_and_reopen(tmp_path):
    path = str(tmp_path / "t.phd5")
    steps = []
    with repro.open(path, "w", nranks=4) as f:
        ds = f.create_dataset("density", SHAPE, np.float32,
                              maxshape=(None,) + SHAPE, error_bound=1e-3)
        dt = f.create_dataset("temp", SHAPE, np.float32,
                              maxshape=(None,) + SHAPE, error_bound=1e-2)
        assert ds.maxshape == (None,) + SHAPE
        assert ds.shape == (0,) + SHAPE
        for t in range(3):
            d, tm = _field(10 + t), _field(20 + t)
            steps.append((d, tm))
            res = f.append_step({"density": d, "temp": tm})
            assert res.step == t
            if t:
                assert res.warm_started  # session warm-start engaged
        assert ds.shape == (3,) + SHAPE
        assert np.abs(ds[1] - steps[1][0]).max() <= 1e-3 * (1 + 1e-6)
    with repro.open(path) as f:
        ds = f["density"]
        assert ds.time_axis and ds.shape == (3,) + SHAPE
        assert np.abs(ds[-1] - steps[2][0]).max() <= 1e-3 * (1 + 1e-6)
        assert ds[...].shape == (3,) + SHAPE
        assert ds[1:3].shape == (2,) + SHAPE
        assert np.array_equal(ds[2, 4:8, :, :], ds[2][4:8])
        assert f["temp"].attrs["repro:error_bound"] == pytest.approx(1e-2)


def test_time_axis_setitem_staging(tmp_path):
    path = str(tmp_path / "s.phd5")
    d0, t0 = _field(0), _field(1)
    with repro.open(path, "w", nranks=2) as f:
        a = f.create_dataset("a", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        b = f.create_dataset("b", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        a[0] = d0
        assert f.steps_written == 0  # staged, not flushed
        b[0] = t0  # completes the step -> collective session write
        assert f.steps_written == 1
        assert np.abs(a[0] - d0).max() <= 1e-3 * (1 + 1e-6)


def test_time_axis_honours_bound_mode(tmp_path):
    """A relative bound on a time-axis dataset is relative to the data's
    value range, as it is for a snapshot dataset — not an absolute bound
    of the same number, with a footer claiming otherwise."""
    data = _field(14) * 1000.0
    rel = 1e-3
    path = str(tmp_path / "rel.phd5")
    with repro.open(path, "w", nranks=2) as f:
        f.create_dataset("x", SHAPE, np.float32, maxshape=(None,) + SHAPE,
                         error_bound=rel, bound_mode="rel")
        f.append_step({"x": data})
    with repro.open(path) as f:
        assert f["x"].attrs["repro:bound_mode"] == "rel"
        err = float(np.abs(f["x"][0].astype(np.float64) - data).max())
    with EngineFile(path, "r") as ef:
        options = ef[f"{step_group(0)}/x"].filters.sz_options
    assert options["mode"] == "rel"
    assert options["bound"] == pytest.approx(rel)
    # Above the absolute reading of the number, within the relative one.
    assert rel < err <= rel * float(data.max() - data.min()) * (1 + 1e-6)


def test_time_axis_auto_retunes_per_step(tmp_path):
    path = str(tmp_path / "auto.phd5")
    with repro.open(path, "w", nranks=4, strategy="auto") as f:
        f.create_dataset("x", SHAPE, maxshape=(None,) + SHAPE,
                         error_bound=1e-3)
        for t in range(2):
            res = f.append_step({"x": _field(t)})
            assert res.tuning is not None
            assert res.tuning.choice in STRATEGIES


def test_facade_matches_timestep_session_bit_identically(tmp_path):
    """Acceptance: a facade-streamed multi-field multi-step file is the same
    file a plain loop of ``RealDriver.write`` calls makes of the same steps
    — one group per step, warm hints computed here from the previous
    step's actual sizes (and Algorithm 1 orders) — per step and field the
    same partition table (offset, reserved, actual and overflow sizes,
    region), the same *stored* bytes in every partition, and the same
    decoded arrays, under each of the four strategies (one test, not a
    parametrization, so its id stays stable).  ``nocomp`` stores row slabs
    with no partition table, so it compares layout and arrays."""
    shape = (16, 16, 16)
    n_steps = 3
    names = ["baryon_density", "temperature"]
    series = TimestepSeries(shape, n_steps=n_steps, seed=42)
    gen0 = series.snapshot_generator(0)
    config = PipelineConfig()

    for strategy in STRATEGIES:
        p_ref = str(tmp_path / f"driver-{strategy}.phd5")
        driver = RealDriver(strategy, config=config)
        predictive = driver.strategy.predictive
        codecs = {n: SZCompressor(bound=gen0.error_bound(n), mode="abs") for n in names}
        regions = rank_regions(shape, 4, slabs=not driver.strategy.compresses)
        with EngineFile(p_ref, "w") as ef:  # the facade's write pool
            prev = None
            for t in range(n_steps):
                gen = series.snapshot_generator(t)
                payload = rank_payload({n: gen.field(n) for n in names}, shape, regions)
                hints = None if prev is None or not predictive else [
                    (dict(s.actual_nbytes),
                     list(s.order) if strategy == "reorder" else None)
                    for s in prev
                ]
                prev = driver.write(ef, payload, shape, codecs,
                                    group=step_group(t), hints=hints)

        p_fac = str(tmp_path / f"facade-{strategy}.phd5")
        with repro.open(p_fac, "w", nranks=4, strategy=strategy) as f:
            for n in names:
                f.create_dataset(n, shape, np.float32,
                                 maxshape=(None,) + shape,
                                 error_bound=gen0.error_bound(n))
            for t in range(n_steps):
                gen = series.snapshot_generator(t)
                res = f.append_step({n: gen.field(n) for n in names})
                assert res.strategy == strategy
                assert res.warm_started == (predictive and t > 0)

        with EngineFile(p_ref, "r") as a, EngineFile(p_fac, "r") as b:
            for t in range(n_steps):
                for n in names:
                    where = (strategy, t, n)
                    xa = a[f"{step_group(t)}/{n}"]
                    xb = b[f"{step_group(t)}/{n}"]
                    assert xa.layout == xb.layout, where
                    assert np.array_equal(xa.read(), xb.read()), where
                    if strategy == "nocomp":
                        continue
                    table_a = [xa.partition(i).to_json() for i in range(xa.n_partitions)]
                    table_b = [xb.partition(i).to_json() for i in range(xb.n_partitions)]
                    assert table_a == table_b, where
                    for i in range(xa.n_partitions):
                        assert xa.read_partition(i) == xb.read_partition(i), where + (i,)


def test_verify_write_mode_and_close_time(tmp_path):
    data = _field(6)
    path = str(tmp_path / "v.phd5")
    f = repro.open(path, "w")
    f.create_dataset("d", SHAPE, error_bound=1e-3, data=data)
    report = f.verify()
    assert report.passed
    assert len(report.certificates) == 1
    assert report.certificates[0].mode == "abs"
    f.close()
    # After close, the write handle certifies through the serialized footer.
    report = f.verify()
    assert report.passed and report.certificates[0].mode == "abs"


def test_read_mode_verify_names_certify(tmp_path):
    """A read-mode handle has no reference data: verify() refuses and
    points at repro.verify.certify, which certifies against given arrays."""
    from repro.errors import InvalidStateError
    from repro.verify import certify

    data = _field(7)
    path = str(tmp_path / "r.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("fields/d", SHAPE, error_bound=1e-3, data=data)
    with repro.open(path) as f:
        with pytest.raises(InvalidStateError, match=r"repro\.verify\.certify\(path, arrays\)"):
            f.verify()
    assert certify(path, {"d": data}).passed


def test_verify_covers_steps(tmp_path):
    path = str(tmp_path / "vs.phd5")
    with repro.open(path, "w", nranks=2) as f:
        f.create_dataset("x", SHAPE, maxshape=(None,) + SHAPE,
                         error_bound=1e-3)
        f.append_step({"x": _field(0)})
        f.append_step({"x": _field(1)})
        report = f.verify()
        assert report.passed
        assert {c.field for c in report.certificates} == {
            "steps/0000/x", "steps/0001/x",
        }


def test_navigation_matches_h5py_shapes(tmp_path):
    path = str(tmp_path / "nav.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("fields/a", SHAPE, error_bound=1e-3, data=_field(0))
        f.attrs["run"] = "nav-test"
        f["fields"].attrs["kind"] = "mesh"
        assert "fields" in f and "fields/a" in f and "nope" not in f
        assert set(f.keys()) >= {"fields"}
        names = []
        f.visit(names.append)
        assert "fields" in names and "fields/a" in names
        seen = {}

        def record(n, o):
            seen[n] = type(o).__name__
            return None  # non-None would stop the walk, as in h5py

        f.visititems(record)
        assert seen["fields/a"] == "Dataset"
        assert len(f["fields/a"]) == SHAPE[0]
        assert np.asarray(f["fields/a"]).shape == SHAPE
    with repro.open(path) as f:
        assert f.attrs["run"] == "nav-test"
        assert f["fields"].attrs["kind"] == "mesh"


def test_facade_written_scenario_certifies(tmp_path):
    """The verify pillars' writer: scenario payloads land through
    repro.open and certify against the scenario's references."""
    from repro.core.scenarios import get_scenario
    from repro.verify.certify import certify
    from repro.verify.workloads import reference_fields, write_scenario_file

    arrays = get_scenario("balanced").array_payload(seed=0)
    path = str(tmp_path / "cert.phd5")
    write_scenario_file(arrays, "reorder", path)
    report = certify(path, reference_fields(arrays))
    assert report.passed, [c.error for c in report.violations]


def test_run_facade_bench_cell_fingerprint_stable(tmp_path):
    """Two facade writes of one payload produce byte-identical files."""
    from repro.core.scenarios import get_scenario
    from repro.verify import file_fingerprint
    from repro.verify.workloads import write_scenario_file

    arrays = get_scenario("balanced").array_payload(seed=0)
    paths = [str(tmp_path / name) for name in ("a.phd5", "b.phd5")]
    for path in paths:
        write_scenario_file(arrays, "reorder", path)
    assert file_fingerprint(paths[0]) == file_fingerprint(paths[1])


def test_stats_populated_after_implicit_flush_on_read(tmp_path):
    data = _field(7)
    path = str(tmp_path / "lazy.phd5")
    with repro.open(path, "w") as f:
        ds = f.create_dataset("d", SHAPE, error_bound=1e-3)
        ds[...] = data
        assert ds.stats is None  # staged, nothing ran yet
        _ = ds[...]  # read forces the collective flush
        assert ds.stats is not None


def test_rewrite_same_region_before_flush(tmp_path):
    data = _field(8)
    path = str(tmp_path / "rw.phd5")
    with repro.open(path, "w") as f:
        ds = f.create_dataset("d", SHAPE, error_bound=1e-3)
        ds[...] = np.zeros(SHAPE, np.float32)
        ds[...] = data  # replaces the staged block
        assert np.abs(ds[...] - data).max() <= 1e-3 * (1 + 1e-6)


def test_assignment_copies_like_h5py(tmp_path):
    """Mutating the source array after ds[...] = arr must not change what
    gets written (or the retained verification reference)."""
    data = _field(11)
    snapshot = data.copy()
    path = str(tmp_path / "alias.phd5")
    with repro.open(path, "w") as f:
        ds = f.create_dataset("d", SHAPE, error_bound=1e-3)
        ds[...] = data
        data += 1.0  # simulation reuses its buffer
        report = f.verify()
        assert report.passed
    with repro.open(path) as f:
        assert np.abs(f["d"][...] - snapshot).max() <= 1e-3 * (1 + 1e-6)


def test_reopen_rplus_verify_skips_unreferenced(tmp_path):
    """Datasets loaded from disk in 'r+' mode have no retained reference;
    verify() must not certify them against zeros."""
    data = _field(12)
    path = str(tmp_path / "rplus.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("old", SHAPE, error_bound=1e-3, data=data)
    with repro.open(path, "r+") as f:
        new = _field(13)
        f.create_dataset("new", SHAPE, error_bound=1e-3, data=new)
        report = f.verify()
        assert report.passed
        assert {c.field for c in report.certificates} == {"new"}
    with repro.open(path) as f:
        assert np.abs(f["old"][...] - data).max() <= 1e-3 * (1 + 1e-6)
        assert np.abs(f["new"][...] - new).max() <= 1e-3 * (1 + 1e-6)


def test_empty_time_slice_returns_empty(tmp_path):
    path = str(tmp_path / "ets.phd5")
    with repro.open(path, "w", nranks=2) as f:
        t = f.create_dataset("t", SHAPE, maxshape=(None,) + SHAPE,
                             error_bound=1e-3)
        f.append_step({"t": _field(0)})
        assert t[5:].shape == (0,) + SHAPE
        assert t[1:1].dtype == t.dtype


def test_open_file_size_on_disk(tmp_path):
    # Big enough that compression beats the container's fixed overhead
    # (4 KiB header + JSON footer + extra space).
    data = make_smooth_field(shape=(32, 24, 24), noise=0.001, seed=9)
    path = str(tmp_path / "sz.phd5")
    with repro.open(path, "w") as f:
        f.create_dataset("d", data.shape, error_bound=1e-3, data=data)
    stored = os.path.getsize(path)
    assert 0 < stored < data.nbytes  # compressed (incl. extra space + footer)
