"""``python -m pytest perfbench -q``: the benchmark's checks on itself.

Not part of tier-1 (``pytest.ini`` collects ``tests`` and ``benchmarks``);
run it when the benchmark, or a name it measures, changes.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import metrics as M  # noqa: E402
from perfbench import runner, selfcheck  # noqa: E402

#: what a run costs beyond its measured seconds: interpreter start, three
#: set-ups, the warm-up operation and the loop's last body (the slowest
#: workload measured 8 s; the mean over the four is 6 s).
RUN_OVERHEAD_S = 10


def test_names_match_benchmark_json():
    assert selfcheck.names_problems() == []


def test_benchmark_json_is_within_the_contract_limits():
    spec = selfcheck.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert 1 <= spec["run_seconds"] <= 60
    # The driver's 4 + 22 x workloads runs must end within 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + RUN_OVERHEAD_S) <= 3420


def test_negative_control_breaks_the_bound_check():
    assert selfcheck.negative_control() == []


def test_daemon_child_is_reaped(tmp_path):
    assert selfcheck.daemon_reaped(str(tmp_path)) == []


@pytest.fixture(scope="module")
def tiny_runs():
    return selfcheck.tiny_runs(seed=3)


def test_same_seed_same_inputs_and_exact_counters(tiny_runs):
    assert selfcheck.run_problems(tiny_runs) == []


def test_driver_mode_prints_the_contract_object(tiny_runs):
    for sets in tiny_runs.values():
        for r in (sets["timed"][0], sets["traced"][0]):
            line = json.loads(runner.contract_line(r))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
            want = M.LAYER_NAMES if r["trace"] else M.E2E_NAMES
            assert tuple(line["metrics"]) == want
            assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ there is
    nothing to measure: no result, a non-zero status."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
