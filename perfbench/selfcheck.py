"""The benchmark's checks on itself, shared by ``run.py --selftest`` and
``test_perfbench.py``.  Everything runs at tiny scale."""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from perfbench import metrics as M
from perfbench import runner
from perfbench.check import bound_violations
from perfbench.inputs import ERROR_BOUND
from perfbench.meter import Meter
from perfbench.workloads import WORKLOADS, Daemon

#: counters that must repeat exactly for a seed (ISSUE 12, satellite 3).
EXACT_LAYER = (
    "cache.hit_rate", "cache.evictions", "core.overflow_fraction", "hdf5.footer_bytes",
    "compression.ratio", "cache.partitions_decoded", "cache.bytes_decoded",
    "core.overflow_partitions", "core.reserved_waste_fraction",
    "modeling.size_err_p50", "modeling.size_err_max",
)


def benchmark_json() -> dict:
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def expected_spec() -> dict:
    """What ``BENCHMARK.json`` must say, from the benchmark's own tables
    (``run_seconds`` is the one key chosen in the file itself)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "workloads": [{"name": w, "why": WORKLOADS[w].why} for w in M.W],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _pays in M.END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _moves in M.PER_LAYER
        ],
    }


def names_problems() -> "list[str]":
    """Where ``BENCHMARK.json`` and the benchmark's own tables disagree."""
    spec = benchmark_json()
    problems = [
        f"BENCHMARK.json {key!r} differs from perfbench's own tables"
        for key, want in expected_spec().items() if spec.get(key) != want
    ]
    if set(spec) != set(expected_spec()) | {"run_seconds"}:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    return problems


def negative_control() -> "list[str]":
    """A read-back pushed outside the bound must fail the check - and one
    left alone, or moved by less than the bound, must not."""
    problems = []
    rng = np.random.default_rng(0)
    written = rng.uniform(-1, 1, (8, 8, 8)).astype(np.float32)
    inside = (written.astype(np.float64) + 0.9 * ERROR_BOUND).astype(np.float32)
    if bound_violations(written, written.copy(), ERROR_BOUND) != 0:
        problems.append("an exact read-back was counted as a violation")
    if bound_violations(written, inside, ERROR_BOUND) != 0:
        problems.append("a read-back inside the bound was counted as a violation")
    outside = written.copy()
    outside[3, 4, 5] += 2 * ERROR_BOUND
    if bound_violations(written, outside, ERROR_BOUND) != 1:
        problems.append("a read-back 2x outside the bound was not caught")
    if bound_violations(written, written[:4], ERROR_BOUND) != written.size:
        problems.append("a read-back of the wrong shape was not caught")
    # ... and the workloads route their checks through it.
    w = WORKLOADS["hotspot_read"](0, "tiny", ".", Meter("control"))
    w.verify("control", written, outside)
    if w.meter.failed != 1:
        problems.append("Workload.verify did not count the broken read-back as a failure")
    return problems


def daemon_reaped(workdir: str) -> "list[str]":
    """Start and stop the serve daemon: the child must be gone and waited."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        daemon = Daemon(".", "selfcheck.sock")
        try:
            daemon.wait_ready()
        finally:
            daemon.stop()
    finally:
        os.chdir(cwd)
    if daemon.proc.returncode is None:
        return ["the serve daemon was not reaped"]
    return []


def tiny_runs(seed: int, seconds: float = 0.3) -> dict:
    """Per workload at tiny scale: one timed run and two traced runs,
    two children at a time (nothing here is a measurement)."""
    jobs = [(w, t) for w in M.W for t in (0, 1, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: runner.run_child(job[0], seed, seconds, job[1], scale="tiny"), jobs
        ))
    out = {w: {"timed": [], "traced": []} for w in M.W}
    for (w, t), r in zip(jobs, results):
        out[w]["traced" if t else "timed"].append(r)
    return out


def run_problems(runs: dict) -> "list[str]":
    """Names complete, nothing failed or leaked, same seed -> same inputs
    and same exact counters."""
    problems = []
    for w, sets in runs.items():
        timed, (first, second) = sets["timed"][0], sets["traced"]
        if set(timed["metrics"]) != set(M.E2E_NAMES):
            problems.append(f"{w}: timed pass metric names differ from END_TO_END")
        if any(v == 0 for v in timed["metrics"].values()):
            problems.append(f"{w}: an end-to-end metric is 0")
        for r in (timed, first, second):
            if r["failed"] or r["attempted"] < 1:
                problems.append(f"{w}: {r['failed']}/{r['attempted']} failed: {r['first_error']}")
            if r["leaked_processes"]:
                problems.append(f"{w}: a child process outlived its run")
        for r in (first, second):
            if set(r["metrics"]) != set(M.LAYER_NAMES):
                problems.append(f"{w}: traced pass metric names differ from PER_LAYER")
        if len({r["inputs_sha256"] for r in (timed, first, second)}) != 1:
            problems.append(f"{w}: input digests differ between runs of one seed")
        if first["counters"] != second["counters"]:
            problems.append(f"{w}: exact counters differ: {first['counters']} {second['counters']}")
        if timed["counters"]["file_bytes"] != first["counters"]["file_bytes"]:
            problems.append(f"{w}: stored bytes differ between the timed and the traced pass")
        for name in EXACT_LAYER:
            if first["metrics"][name] != second["metrics"][name]:
                problems.append(
                    f"{w}: {name} differs: {first['metrics'][name]} {second['metrics'][name]}"
                )
    hot = runs["hotspot_read"]["traced"][0]
    if any(s["name"] in ("write_file", "append_step", "assign", "commit", "round")
           for s in hot["spans"]):
        problems.append("hotspot_read executed a write-path operation")
    if hot["metrics"]["trace.write_wall_s"] != 0:
        problems.append("hotspot_read reports a write wall")
    return problems


def selftest(seed: int = 0) -> int:
    start = time.perf_counter()
    os.makedirs(runner.WORK_ROOT, exist_ok=True)
    problems = names_problems() + negative_control()
    with tempfile.TemporaryDirectory(dir=runner.WORK_ROOT) as scratch:
        problems += daemon_reaped(scratch)
    problems += run_problems(tiny_runs(seed))
    for p in problems:
        print("SELFTEST PROBLEM:", p)
    print(f"selftest: {'FAILED' if problems else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0
