"""The `repro` console entry point and the inspector's facade summary."""

from __future__ import annotations

import pytest

import repro
from helpers import make_smooth_field
from repro.tools.main import main

SHAPE = (16, 12, 12)


@pytest.fixture
def facade_file(tmp_path):
    data = make_smooth_field(shape=SHAPE)
    path = str(tmp_path / "f.phd5")
    with repro.open(path, "w", nranks=2) as f:
        f.create_dataset("fields/density", SHAPE, error_bound=1e-3, data=data)
        f.create_dataset("fields/raw", SHAPE, data=data)
        f.create_dataset("temp", SHAPE, maxshape=(None,) + SHAPE,
                         error_bound=1e-2)
        f.append_step({"temp": data})
    return path


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == repro.__version__
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    # Benchmarking is perfbench/run.py, not a subcommand.
    for command in ("frobnicate", "bench"):
        assert main([command]) == 2
        assert "unknown subcommand" in capsys.readouterr().err


def test_dispatch_to_module_clis(monkeypatch):
    calls = {}
    import repro.verify.cli as verify_cli

    monkeypatch.setattr(verify_cli, "main",
                        lambda argv: calls.setdefault("verify", argv) and 0 or 0)
    assert main(["verify", "--quick"]) == 0
    assert calls["verify"] == ["--quick"]


def test_inspect_ls_via_console(facade_file, capsys):
    """``summary`` is the inspector's one command: ``repro inspect ls``
    is a usage error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "ls", facade_file])
    assert exc.value.code == 2
    assert "invalid choice: 'ls'" in capsys.readouterr().err


def test_inspect_summary_stored_overflow_and_total(tmp_path, capsys):
    """Each row carries its stored and overflow bytes, as the engine
    records them, and a TOTAL row sums them."""
    from repro.hdf5 import File as EngineFile

    path = str(tmp_path / "tight.phd5")
    data = make_smooth_field(shape=SHAPE)
    with repro.open(path, "w", nranks=4,
                    config=repro.PipelineConfig(extra_space_ratio=1.1)) as f:
        for i in range(3):
            f.create_dataset(f"fields/f{i}", SHAPE, error_bound=1e-4,
                             data=data * (i + 1))
    assert main(["inspect", "summary", path, "--no-read-stats"]) == 0
    rows = {ln.split()[0]: ln.split() for ln in capsys.readouterr().out.splitlines()[2:]}
    with EngineFile(path, "r") as ef:
        expected = {}
        for i in range(3):
            ds = ef[f"fields/f{i}"]
            overflow = sum(ds.partition(p).overflow_nbytes for p in range(ds.n_partitions))
            expected[f"fields/f{i}"] = (ds.stored_nbytes, overflow)
    for name, (stored, overflow) in expected.items():
        assert (int(rows[name][-3]), int(rows[name][-2])) == (stored, overflow)
    assert int(rows["TOTAL"][-3]) == sum(s for s, _ in expected.values())
    assert int(rows["TOTAL"][-2]) == sum(o for _, o in expected.values())


def test_inspect_summary_pretty_prints_facade(facade_file, capsys):
    assert main(["inspect", "summary", facade_file]) == 0
    out = capsys.readouterr().out
    assert "facade-written" in out and "1 time step(s)" in out
    # per-dataset bound, strategy, steps, ratio
    assert "1.0e-03" in out and "reorder" in out
    assert "exact" in out and "nocomp" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("temp")]
    assert len(lines) == 1 and " time " in lines[0] and " 1 " in lines[0]


def test_inspect_summary_engine_written_file(tmp_path, capsys):
    """Non-facade files still summarize (origin reported as engine)."""
    from repro.core.pipeline import RealDriver
    from repro.core.scenarios import get_scenario
    from repro.hdf5.file import File

    arrays = get_scenario("balanced").array_payload(seed=0)
    path = str(tmp_path / "engine.phd5")
    with File(path, "w") as f:
        RealDriver("reorder").write(f, arrays.payload, arrays.shape, arrays.codecs)
    assert main(["inspect", "summary", path]) == 0
    out = capsys.readouterr().out
    assert "engine driver-written" in out
    assert "1.0e-03" in out  # bound recovered from the SZ filter options


def test_inspect_summary_read_stats_footer(facade_file, capsys):
    assert main(["inspect", "summary", facade_file]) == 0
    out = capsys.readouterr().out
    assert "read path" in out
    assert "partitions decoded:" in out and "hit rate:" in out
    assert "bytes decoded:" in out and "process cache:" in out
    # Two passes over each snapshot dataset: the second is served by the
    # decoded-partition cache, so the reported hit rate is exactly 0.50.
    assert "hit rate: 0.50" in out


def test_inspect_summary_no_read_stats_flag(facade_file, capsys):
    assert main(["inspect", "summary", facade_file, "--no-read-stats"]) == 0
    out = capsys.readouterr().out
    assert "read path" not in out


def test_setup_declares_console_script():
    with open("setup.py", encoding="utf-8") as f:
        text = f.read()
    assert "console_scripts" in text
    assert "repro=repro.tools.main:main" in text


def test_summary_roundtrip_values_match_engine(facade_file):
    with repro.open(facade_file) as f:
        ds = f["fields/density"]
        assert ds.declared_bound == pytest.approx(1e-3)
        raw = f["fields/raw"]
        assert raw.declared_bound is None
        t = f["temp"]
        assert t.declared_bound == pytest.approx(1e-2)
