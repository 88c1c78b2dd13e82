"""Tests for the end-to-end verification subsystem (src/repro/verify)."""

import json
import os
import subprocess

import pytest

from helpers import open_series_file, series_step
from repro.core.config import EXTRA_SPACE_MIN, PipelineConfig
from repro.core.scenarios import get_scenario, scenario_names
from repro.core.strategy import STRATEGIES
from repro.data.timesteps import TimestepSeries
from repro.errors import VerificationError
from repro.hdf5.file import File
from repro.verify import (
    CANONICAL_SCENARIO,
    SCHEMA,
    certify,
    certify_codecs,
    differential_parity,
    draw_case,
    file_fingerprint,
    fuzz,
    reference_fields,
    run_case,
    shrink_case,
    write_scenario_file,
)
from repro.verify.cli import main as verify_main
from repro.verify.fuzz import FuzzCase


@pytest.fixture(scope="module")
def balanced_arrays():
    return get_scenario("balanced").array_payload(seed=0)


def _write(tmp_path, arrays, strategy="reorder", config=None, name="f.phd5"):
    path = str(tmp_path / name)
    write_scenario_file(arrays, strategy, path, config=config)
    return path


class TestCertify:
    def test_balanced_reorder_certifies(self, tmp_path, balanced_arrays):
        path = _write(tmp_path, balanced_arrays)
        report = certify(path, reference_fields(balanced_arrays))
        assert report.passed
        assert len(report.certificates) == len(balanced_arrays.fields)
        for c in report.certificates:
            assert c.mode == "abs"
            assert c.max_error <= c.bound * (1 + 1e-6)
            assert c.n_partitions == balanced_arrays.nranks
            assert c.compressed_nbytes > 0

    def test_nocomp_certifies_exactly(self, tmp_path, balanced_arrays):
        path = _write(tmp_path, balanced_arrays, strategy="nocomp")
        report = certify(path, reference_fields(balanced_arrays))
        assert report.passed
        assert all(c.mode == "exact" and c.max_error == 0.0 for c in report.certificates)

    def test_wrong_reference_fails(self, tmp_path, balanced_arrays):
        path = _write(tmp_path, balanced_arrays)
        other = get_scenario("balanced").array_payload(seed=1)
        report = certify(path, reference_fields(other))
        assert not report.passed
        with pytest.raises(VerificationError, match="certification of"):
            report.raise_on_failure()

    def test_tampered_file_fails_readably(self, tmp_path, balanced_arrays):
        """Corrupting stored stream bytes yields a failing certificate with
        the read-path error recorded, not a crash."""
        path = _write(tmp_path, balanced_arrays, name="tamper.phd5")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            # Stomp a stretch of the data region (past the 4096 header,
            # before the JSON footer).
            fh.seek(min(8192, size // 2))
            fh.write(b"\xff" * 512)
        report = certify(path, reference_fields(balanced_arrays))
        assert not report.passed
        assert any(c.error is not None or c.max_error > c.bound
                   for c in report.violations)

    def test_overflow_stress_certifies_within_bound(self, tmp_path):
        """Satellite: an overflowed field still satisfies its error bound
        after read-back, and the certificates prove the overflow path ran."""
        arrays = get_scenario("overflow-stress").array_payload(seed=0)
        config = PipelineConfig(extra_space_ratio=EXTRA_SPACE_MIN)
        path = _write(tmp_path, arrays, config=config, name="overflow.phd5")
        stats = None
        with File(path, "r") as f:
            # The write must actually have overflowed for this test to
            # exercise what it claims to exercise.
            stats = sum(
                f[f"fields/{n}"].partition(r).overflow_nbytes
                for n in arrays.fields
                for r in range(arrays.nranks)
            )
        assert stats > 0, "overflow-stress scenario produced no overflow"
        report = certify(path, reference_fields(arrays))
        assert report.passed
        assert report.total_overflow_nbytes == stats
        assert any(c.overflowed_partitions > 0 for c in report.certificates)

    def test_certify_codecs_all_pass(self):
        certs = certify_codecs(seed=0)
        assert all(c.passed for c in certs), [c.params for c in certs if not c.passed]
        families = {c.codec for c in certs}
        assert families == {"sz", "lossless"}
        # Every certificate asserts a bound or exact storage.
        assert all(c.mode in ("abs", "exact") for c in certs)
        assert not any(c.mode == "unbounded" for c in certs)


class TestParity:
    def test_serial_thread_identical(self):
        result = differential_parity(
            CANONICAL_SCENARIO,
            strategies=list(STRATEGIES),
            backends=("serial", "thread"),
            seed=0,
        )
        assert result.passed, (result.mismatches, result.bound_violations)
        for strategy in STRATEGIES:
            prints = result.fingerprints(strategy)
            assert set(prints) == {"serial", "thread"}
            assert len(set(prints.values())) == 1
            assert result.certifications[strategy].passed

    def test_fingerprint_is_content_sensitive(self, tmp_path, balanced_arrays):
        a = _write(tmp_path, balanced_arrays, name="a.phd5")
        b = _write(tmp_path, balanced_arrays, name="b.phd5")
        assert file_fingerprint(a) == file_fingerprint(b)
        with open(b, "r+b") as fh:
            fh.seek(5000)
            fh.write(b"\x00\x01")
        assert file_fingerprint(a) != file_fingerprint(b)


class TestFuzz:
    def test_draw_is_deterministic(self):
        a = [draw_case(7, i) for i in range(6)]
        b = [draw_case(7, i) for i in range(6)]
        assert a == b
        # Different seeds draw different case streams.
        assert a != [draw_case(8, i) for i in range(6)]

    def test_cases_stay_in_domain(self):
        for i in range(20):
            c = draw_case(3, i)
            assert c.base in scenario_names()
            assert c.strategy in STRATEGIES
            assert 1 <= c.nfields <= 4 and 1 <= c.nranks <= 4
            assert c.shape[0] >= c.nranks
            assert EXTRA_SPACE_MIN <= c.extra_space <= 1.43
            assert c.dtype in ("float32", "float64")

    def test_small_run_passes(self):
        report = fuzz(2, seed=0)
        assert report.passed
        assert len(report.cases) == 2

    def test_shrink_finds_minimal_config(self):
        """Shrinking a synthetic failure converges to the smallest case
        that still satisfies the failure predicate."""
        case = FuzzCase(
            index=0, seed=0, base="balanced", strategy="reorder",
            nfields=4, nranks=4, shape=(16, 16, 16), bound=1e-3,
            dtype="float64", extra_space=1.25,
        )
        # Fails whenever more than one field is involved.
        minimal = shrink_case(case, lambda c: "boom" if c.nfields > 1 else None)
        assert minimal.nfields == 2  # smallest still-failing field count
        # Everything orthogonal to the predicate shrank too.
        assert minimal.nranks == 1
        assert minimal.dtype == "float32"

    def test_run_case_reports_instead_of_raising(self):
        bad = FuzzCase(
            index=0, seed=0, base="balanced", strategy="no-such-strategy",
            nfields=1, nranks=1, shape=(4, 4, 4), bound=1e-3,
            dtype="float32", extra_space=1.25,
        )
        error = run_case(bad)
        assert error is not None and "no-such-strategy" in error


class TestRelativeModeAndReportShapes:
    def test_rel_mode_bound_resolves_from_streams(self, tmp_path):
        """A rel-mode file certifies against the per-partition absolute
        bounds its own stream headers resolved."""
        import numpy as np

        from repro.compression.sz import SZCompressor
        from repro.core.pipeline import RealDriver
        from repro.hdf5.file import File as PFile
        from repro.hdf5.properties import FileAccessProps
        from repro.mpi.executor import run_spmd

        shape = (8, 8)
        data = np.random.default_rng(2).normal(0, 1, shape).astype(np.float32)
        codecs = {"a": SZCompressor(bound=1e-3, mode="rel")}
        path = str(tmp_path / "rel.phd5")
        f = PFile(path, "w", fapl=FileAccessProps(async_io=True))
        driver = RealDriver("reorder")

        def rank_fn(comm):
            reg = [[comm.rank * 4, (comm.rank + 1) * 4], [0, 8]]
            sl = tuple(slice(a, b) for a, b in reg)
            return driver.run(comm, f, {"a": np.ascontiguousarray(data[sl])},
                              reg, shape, codecs)

        run_spmd(2, rank_fn)
        f.close()
        report = certify(path, {"a": data})
        assert report.passed
        (cert,) = report.certificates
        assert cert.mode == "abs"  # rel resolved to an absolute promise
        assert 0.0 < cert.bound < 1.0
        assert cert.max_error <= cert.bound * (1 + 1e-6)

    def test_certify_rejects_non_dataset(self, tmp_path, balanced_arrays):
        path = _write(tmp_path, balanced_arrays)
        with File(path, "r") as f:
            with pytest.raises(VerificationError, match="not a dataset"):
                certify(f, {"": None}, group="")

    def test_float64_payload_cast(self, tmp_path, balanced_arrays):
        import numpy as np

        path = str(tmp_path / "f64.phd5")
        write_scenario_file(balanced_arrays, "reorder", path, dtype=np.float64)
        report = certify(path, reference_fields(balanced_arrays, dtype=np.float64))
        assert report.passed

    def test_parity_result_failure_paths(self):
        from repro.verify import ParityCell, ParityResult

        result = ParityResult(scenario="balanced", seed=0)
        result.cells = [
            ParityCell("reorder", "serial", "aaaa"),
            ParityCell("reorder", "thread", "bbbb"),
        ]
        assert result.mismatches == ["reorder"]
        assert not result.passed
        with pytest.raises(VerificationError, match="fingerprint mismatch"):
            result.raise_on_failure()
        blob = result.to_json()
        assert blob["strategies"]["reorder"]["identical"] is False
        assert blob["strategies"]["reorder"]["certification"] is None
        assert blob["mismatches"] == ["reorder"]
        assert ParityCell("reorder", "serial", "aaaa").to_json()["backend"] == "serial"

    def test_build_report_collects_all_failure_kinds(self, tmp_path, balanced_arrays):
        from repro.verify import ParityCell, ParityResult, build_report
        from repro.verify.certify import CodecCertificate

        path = _write(tmp_path, balanced_arrays)
        failing_cert = certify(
            path, reference_fields(get_scenario("balanced").array_payload(seed=1))
        )
        parity = ParityResult(scenario="balanced", seed=0)
        parity.cells = [
            ParityCell("reorder", "serial", "aaaa"),
            ParityCell("reorder", "thread", "bbbb"),
        ]
        bad_codec = CodecCertificate(
            codec="sz", params="x", mode="abs", bound=1e-3,
            max_error=1.0, deterministic=True, passed=False,
        )
        fuzz_report = fuzz(1, seed=0, strategies=["no-such-strategy"])
        assert not fuzz_report.passed
        report = build_report(
            {"balanced/reorder": failing_cert}, parity, [bad_codec], fuzz_report,
            quick=True, seed=0,
        )
        assert report["passed"] is False
        kinds = "\n".join(report["failures"])
        assert "certification balanced/reorder" in kinds
        assert "fingerprint mismatch" in kinds
        assert "codec sz" in kinds
        assert "fuzz" in kinds
        # The fuzz failure carries a shrunk minimal case and its json shape.
        failure = fuzz_report.failures[0]
        assert failure.minimal.nfields == 1 and failure.minimal.nranks == 1
        assert failure.to_json()["minimal"]["strategy"] == "no-such-strategy"

    def test_cli_skip_flags_and_failure_exit(self, tmp_path, monkeypatch, capsys):
        status = verify_main([
            "--quick", "--scenarios", "balanced", "--strategies", "nocomp",
            "--skip-parity", "--skip-codecs", "--fuzz-cases", "0",
            "--out", str(tmp_path / "a"),
        ])
        assert status == 0
        # A failing pillar flips the exit status and prints the problems.
        import repro.verify.cli as cli_mod

        def failing_fuzz(*args, **kwargs):
            return fuzz(1, seed=0, strategies=["no-such-strategy"])

        monkeypatch.setattr(cli_mod, "fuzz", failing_fuzz)
        status = verify_main([
            "--quick", "--scenarios", "balanced", "--strategies", "nocomp",
            "--skip-parity", "--skip-codecs", "--fuzz-cases", "1",
            "--out", str(tmp_path / "b"),
        ])
        assert status == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out

    def test_git_sha_is_this_checkouts_wherever_the_caller_stands(
        self, tmp_path, monkeypatch
    ):
        from repro.verify.report import git_sha

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        try:
            head = subprocess.run(
                ["git", "-C", root, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("not a git checkout")
        monkeypatch.chdir(tmp_path)  # not a repository
        assert git_sha() == head

    def test_git_sha_unknown_without_git(self, tmp_path, monkeypatch):
        from repro.verify.report import git_sha

        monkeypatch.setenv("PATH", str(tmp_path))
        assert git_sha() == "unknown"


class TestSessionVerify:
    """Close-time certification of the steps a facade file streamed."""

    SERIES = TimestepSeries(shape=(12, 10, 8), n_steps=2, seed=5)

    def _stream(self, path, n_steps, **kwargs):
        f = open_series_file(path, self.SERIES, nranks=2, **kwargs)
        for step in range(n_steps):
            f.append_step(series_step(self.SERIES, step))
        return f

    def test_close_verifies_and_stores_report(self, tmp_path):
        f = self._stream(tmp_path / "s.phd5", 2, config=PipelineConfig(verify=True))
        f.close()
        assert f.verification is not None
        assert f.verification.passed
        n_fields = len(self.SERIES.snapshot_generator(0).field_names)
        assert len(f.verification.certificates) == 2 * n_fields

    def test_close_verify_override_skips(self, tmp_path):
        f = self._stream(tmp_path / "s.phd5", 1, config=PipelineConfig(verify=True))
        f.close(verify=False)
        assert f.verification is None

    def test_unwritten_session_close_verify_is_noop(self, tmp_path):
        f = self._stream(tmp_path / "s.phd5", 0)
        f.close(verify=True)  # nothing written: nothing to certify
        assert f.verification is None


class TestCLI:
    def test_narrow_quick_run(self, tmp_path, capsys):
        status = verify_main([
            "--quick",
            "--scenarios", "balanced",
            "--strategies", "reorder,nocomp",
            "--backends", "serial",
            "--fuzz-cases", "1",
            "--out", str(tmp_path),
        ])
        assert status == 0
        artifacts = [p for p in os.listdir(tmp_path) if p.startswith("VERIFY_")]
        assert len(artifacts) == 1
        with open(tmp_path / artifacts[0], encoding="utf-8") as f:
            report = json.load(f)
        assert report["schema"] == SCHEMA
        assert report["passed"] is True
        assert set(report["certification"]) == {
            "balanced/reorder", "balanced/nocomp", "balanced/facade[reorder]",
        }
        assert report["parity"]["passed"] is True
        assert report["fuzz"]["n_cases"] == 1
        out = capsys.readouterr().out
        assert "verification passed" in out

    @pytest.mark.slow
    def test_full_quick_matrix(self, tmp_path):
        """The acceptance gate: all 9 scenarios x all registered strategies
        certify on the serial backend under --quick."""
        status = verify_main(["--quick", "--out", str(tmp_path)])
        assert status == 0
        artifact = next(p for p in os.listdir(tmp_path) if p.startswith("VERIFY_"))
        with open(tmp_path / artifact, encoding="utf-8") as f:
            report = json.load(f)
        expected = {
            f"{sc}/{st}" for sc in scenario_names() for st in STRATEGIES
        } | {f"{sc}/facade[reorder]" for sc in scenario_names()}
        assert set(report["certification"]) == expected
        assert report["passed"] is True
        # Overflow-pressure regimes must actually exercise the repair path.
        stress = [
            v for k, v in report["certification"].items()
            if k.startswith("overflow-stress/") and not k.endswith("nocomp")
            and not k.endswith("filter")
        ]
        assert any(cell["total_overflow_nbytes"] > 0 for cell in stress)
        # The facade cells ride the same write path: identical overflow
        # traffic to the driver cells, scenario by scenario.
        for sc in scenario_names():
            facade = report["certification"][f"{sc}/facade[reorder]"]
            direct = report["certification"][f"{sc}/reorder"]
            assert facade["total_overflow_nbytes"] == direct["total_overflow_nbytes"]
