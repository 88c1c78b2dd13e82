"""``python -m repro.bench`` — the executor microbenchmark suite.

Runs a fixed microbenchmark matrix — **plan / compress / write / tune** on
three named scenarios × every requested executor backend — and emits a
schema-versioned ``BENCH_<git-sha>.json``: wall-clock per cell, parallel
speedup over serial, and *fingerprints* proving the backends computed the
same thing (byte digests for compress/write, strategy choices for tune,
offset-table digests for plan).  This file is the repository's perf
trajectory artifact: CI runs ``--quick`` on every push, uploads the JSON,
and fails when the serial wall-clock regresses more than
``--max-regression`` against the committed ``results/bench_baseline.json``.

Usage::

    python -m repro.bench                       # full microbench suite
    python -m repro.bench --quick               # CI smoke sizes
    python -m repro.bench --quick \\
        --baseline results/bench_baseline.json  # regression gate (CI)
    python -m repro.bench --quick \\
        --write-baseline results/bench_baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.harness import format_table, results_dir
from repro.bench.read import measure_read_extras
from repro.bench.serve import measure_serve_saturation
from repro.core.config import PipelineConfig
from repro.core.scenarios import Scenario, get_scenario
from repro.core.strategy import get_strategy
from repro.exec import EXECUTOR_NAMES, Executor, get_executor
from repro.hdf5.file import File

#: Bench artifact schema (bump on any shape change).
#: v2: added the ``read`` matrix bench and the artifact-level ``read``
#: section (hotspot trace + decode speedup).
#: v3: added the ``serve`` saturation section (N concurrent daemon
#: clients vs the serial sum of N direct facade writes).
SCHEMA = "repro-bench/3"

#: The fixed scenario triple: balanced (the paper's target regime),
#: latency-dominated many-small-fields, and incompressible noise.
BENCH_SCENARIOS = ("balanced", "many-small-fields", "incompressible")

#: Microbenchmark names in presentation order.  ``facade`` is the same
#: multi-rank write as ``write`` but driven through ``repro.open``; the
#: artifact's ``facade_overhead`` section (a *paired* back-to-back serial
#: measurement, see :func:`measure_facade_overhead`) is the number that
#: proves the h5py-style surface costs <5% over the direct driver.
#: ``read`` is the cold multi-partition decode of a just-written scenario
#: file (cache cleared per run), fanned over the executor backends; its
#: artifact-level companions — the 80/20 hotspot trace and the
#: scalar-vs-vectorized decode speedup — live in the report's ``read``
#: section (see :mod:`repro.bench.read`).
BENCHES = ("plan", "compress", "write", "facade", "read", "tune")


@dataclass(frozen=True)
class BenchCell:
    """One (bench, scenario, backend) measurement."""

    bench: str
    scenario: str
    backend: str
    seconds: float
    repeats: int
    fingerprint: str

    def to_json(self) -> dict:
        return {
            "bench": self.bench,
            "scenario": self.scenario,
            "backend": self.backend,
            "seconds": self.seconds,
            "repeats": self.repeats,
            "fingerprint": self.fingerprint,
        }


# ---------------------------------------------------------------------------
# Microbenchmark bodies (each returns a fingerprint string)
# ---------------------------------------------------------------------------

def digest(parts: "list[bytes | str]") -> str:
    """Short stable fingerprint of an ordered byte/str sequence.

    Shared with :mod:`repro.verify`, whose differential-parity pillar
    fingerprints whole written files the same way the bench cells do.
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else p)
    return h.hexdigest()[:16]


def file_fingerprint(path: str) -> str:
    """Short digest of a finished file's bytes (the ``write``/``facade``
    cells' fingerprint, and the verify parity pillar's)."""
    with open(path, "rb") as fh:
        return digest([hashlib.sha256(fh.read()).digest()])


def _payload(sc: Scenario, quick: bool):
    """The scenario's real-array payload at quick or full bench scale."""
    if quick:
        return sc.array_payload(seed=0)
    return sc.scaled(array_shape=(32, 24, 24), array_nranks=8).array_payload(seed=0)


# Each microbenchmark is a (setup, run) pair: ``setup(sc, quick)`` builds
# the input state once per (bench, scenario) — data *generation* is fixed
# serial cost identical across backends and must stay outside the timed
# region, or it dilutes every measured speedup toward 1.0 and adds noise
# to the gated wall-clock — and ``run(ex, state)`` is the timed fan-out.

def _plan_cell(cell) -> str:
    """One offset-table computation (process-safe)."""
    predicted, original = cell
    table = get_strategy("reorder").plan.compute_table(
        predicted, original, PipelineConfig(), 4096
    )
    return digest([table.offsets.tobytes(), table.reserved.tobytes()])


def setup_plan(sc: Scenario, quick: bool):
    nranks, nfields, nseeds = (32, 8, 8) if quick else (128, 12, 16)
    scaled = sc.scaled(nranks=nranks, nfields=nfields)
    workloads = [scaled.workload(seed) for seed in range(nseeds)]
    return [
        (wl.matrix("predicted_nbytes"), wl.matrix("original_nbytes")) for wl in workloads
    ]


def run_plan(ex: Executor, cells) -> str:
    """Phase-2 planning: one offset table per seed, fanned over seeds."""
    return digest(ex.map_cells(_plan_cell, cells))


def _compress_cell(cell) -> bytes:
    """Compress one partition of one field (process-safe)."""
    bound, data = cell
    from repro.compression.sz import SZCompressor

    return SZCompressor(bound=bound, mode="abs").compress(data)


def setup_compress(sc: Scenario, quick: bool):
    arrays = _payload(sc, quick)
    return [
        (sc.array_bound, local[name])
        for local, _region in arrays.payload
        for name in sorted(local)
    ]


def run_compress(ex: Executor, cells) -> str:
    """Per-field compression cells from the scenario's real arrays."""
    streams = ex.map_cells(_compress_cell, cells)
    return digest([hashlib.sha256(s).digest() for s in streams])


def setup_write(sc: Scenario, quick: bool):
    return _payload(sc, quick)


def run_write(ex: Executor, arrays) -> str:
    """The multi-rank write microbenchmark: one ``RealDriver.write``.

    Every backend must produce byte-identical files — the declared
    layout's offsets are deterministic, so the fingerprint is the digest
    of the finished file.  The write itself is
    :func:`repro.verify.workloads.write_scenario_file`, shared with the
    verify pillars like :func:`run_facade`'s.
    """
    from repro.verify.workloads import write_scenario_file

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "bench.phd5")
        write_scenario_file(arrays, "reorder", path, executor=ex)
        return file_fingerprint(path)


def setup_facade(sc: Scenario, quick: bool):
    return _payload(sc, quick)


def run_facade(ex: Executor, arrays) -> str:
    """The multi-rank write through the ``repro.open`` facade.

    Identical payload, strategy, and decomposition to :func:`run_write`
    (each payload block lands as one ``ds[region] = block`` assignment, so
    the staged blocks become the SPMD ranks); the measured difference is
    pure facade overhead — staging, batching, settings resolution, and
    metadata attrs.  The write protocol itself is
    :func:`repro.verify.workloads.write_scenario_file_facade`, shared with
    the verify pillar so bench and certification can never drift apart.
    """
    from repro.verify.workloads import write_scenario_file_facade

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "bench.phd5")
        write_scenario_file_facade(
            arrays, "reorder", path,
            config=PipelineConfig(async_workers=2), executor=ex,
        )
        return file_fingerprint(path)


def setup_read(sc: Scenario, quick: bool):
    """Write one scenario file to decode from (untimed, serial).

    The TemporaryDirectory object rides along in the state tuple so the
    file outlives setup and is reclaimed when the state is dropped.
    """
    arrays = _payload(sc, quick)
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-read-")
    path = os.path.join(tmp.name, "read.phd5")
    from repro.verify.workloads import write_scenario_file_facade

    write_scenario_file_facade(
        arrays, "reorder", path, config=PipelineConfig(async_workers=2)
    )
    return (tmp, path, sorted(arrays.fields))


def run_read(ex: Executor, state) -> str:
    """Cold full-file read: every partition pread + decoded on ``ex``.

    The decoded-partition cache is cleared first so each repeat pays the
    full decode; the fingerprint is the digest of the reconstructed
    arrays, which every backend must reproduce byte-identically.
    """
    from repro.cache import get_cache

    _tmp, path, names = state
    get_cache().clear()
    f = File(path, "r")
    try:
        parts = []
        for name in names:
            arr = f[f"fields/{name}"].read(executor=ex)
            parts.append(hashlib.sha256(np.ascontiguousarray(arr)).digest())
        return digest(parts)
    finally:
        f.close()


def setup_tune(sc: Scenario, quick: bool):
    nranks, nfields, nsteps = (16, 6, 3) if quick else (64, 10, 6)
    scaled = sc.scaled(nranks=nranks, nfields=nfields)
    return [scaled.workload(0, step) for step in range(nsteps)]


def run_tune(ex: Executor, workloads) -> str:
    """Auto-tuner pricing over a drifting series of generated workloads."""
    from repro.core.autotune import AutoTuner

    tuner = AutoTuner("bebop", executor=ex)
    return ",".join(tuner.evaluate(wl).choice for wl in workloads)


_BENCH_FNS: dict[str, tuple[Callable, Callable]] = {
    "plan": (setup_plan, run_plan),
    "compress": (setup_compress, run_compress),
    "write": (setup_write, run_write),
    "facade": (setup_facade, run_facade),
    "read": (setup_read, run_read),
    "tune": (setup_tune, run_tune),
}


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """Short HEAD sha for artifact naming (shared with :mod:`repro.verify`)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_suite(
    scenarios: "list[str]",
    backends: "list[str]",
    quick: bool,
    repeats: int,
) -> "list[BenchCell]":
    """Run the full (bench × scenario × backend) matrix; serial first so
    speedups always have their reference."""
    cells: list[BenchCell] = []
    executors = {name: get_executor(name) for name in backends}
    try:
        for bench in BENCHES:
            setup, run = _BENCH_FNS[bench]
            for scenario in scenarios:
                # Input generation is untimed, shared by every backend.
                state = setup(get_scenario(scenario), quick)
                for backend in backends:
                    ex = executors[backend]
                    # Untimed warmup: one-time costs (model-calibration
                    # caches, pool spin-up, imports) must not land in the
                    # gated wall-clock.
                    fingerprint = run(ex, state)
                    best = float("inf")
                    for _ in range(repeats):
                        t0 = time.perf_counter()
                        fingerprint = run(ex, state)
                        best = min(best, time.perf_counter() - t0)
                    cells.append(
                        BenchCell(bench, scenario, backend, best, repeats, fingerprint)
                    )
    finally:
        for ex in executors.values():
            ex.close()
    return cells


def _index(cells: "list[BenchCell]") -> dict:
    return {(c.bench, c.scenario, c.backend): c for c in cells}


def measure_facade_overhead(
    scenarios: "list[str]", quick: bool, repeats: int
) -> dict[str, float]:
    """Paired facade-vs-driver overhead per scenario (serial backend).

    The independently timed ``write``/``facade`` cells are minutes apart
    in the suite, so on a busy machine their ratio mostly measures CPU
    weather.  Here each repeat times the direct driver and the facade
    back to back — every pair shares the same machine state — and the
    overhead is the *median of the per-pair ratios*, which a single
    scheduler hiccup cannot move.  This is the number the <5% facade
    target is judged on.
    """
    out: dict[str, float] = {}
    ex = get_executor("serial")
    n = max(repeats, 5)
    try:
        for scenario in scenarios:
            arrays = _payload(get_scenario(scenario), quick)
            run_write(ex, arrays)  # warm both paths (imports, model caches)
            run_facade(ex, arrays)
            ratios: list[float] = []
            for _ in range(n):
                t0 = time.perf_counter()
                run_write(ex, arrays)
                direct = time.perf_counter() - t0
                t0 = time.perf_counter()
                run_facade(ex, arrays)
                ratios.append((time.perf_counter() - t0) / direct)
            ratios.sort()
            out[scenario] = ratios[len(ratios) // 2] - 1.0
    finally:
        ex.close()
    return out


def build_report(
    cells: "list[BenchCell]",
    quick: bool,
    repeats: int,
    facade_overhead: "dict[str, float] | None" = None,
    read_extras: "dict | None" = None,
    serve_saturation: "dict | None" = None,
) -> dict:
    """Assemble the schema-versioned artifact."""
    idx = _index(cells)
    backends = sorted({c.backend for c in cells}, key=list(EXECUTOR_NAMES).index)
    speedups: dict[str, dict[str, float]] = {}
    fingerprints: dict[str, dict] = {}
    for bench in BENCHES:
        for scenario in sorted({c.scenario for c in cells}):
            serial = idx.get((bench, scenario, "serial"))
            if serial is None:
                continue
            key = f"{bench}/{scenario}"
            speedups[key] = {
                b: serial.seconds / idx[(bench, scenario, b)].seconds
                for b in backends
                if (bench, scenario, b) in idx and idx[(bench, scenario, b)].seconds > 0
            }
            prints = {
                b: idx[(bench, scenario, b)].fingerprint
                for b in backends
                if (bench, scenario, b) in idx
            }
            fingerprints[key] = {
                "per_backend": prints,
                "identical": len(set(prints.values())) <= 1,
            }
    if facade_overhead is None:
        # Fallback (direct build_report callers): derive from the suite
        # cells; less robust than the paired measurement main() makes.
        facade_overhead = {}
        for scenario in sorted({c.scenario for c in cells}):
            direct = idx.get(("write", scenario, "serial"))
            facade = idx.get(("facade", scenario, "serial"))
            if direct is not None and facade is not None and direct.seconds > 0:
                facade_overhead[scenario] = facade.seconds / direct.seconds - 1.0
    return {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "cells": [c.to_json() for c in cells],
        "speedups": speedups,
        "fingerprints": fingerprints,
        #: repro.open wall-clock over the direct driver path, per scenario
        #: (paired serial runs; 0.03 = 3% slower).  Target: < 0.05.
        "facade_overhead": facade_overhead,
        #: Read-path extras: the 80/20 hotspot trace (cache hit-rate,
        #: p50/p99 latency; target hit-rate >= 0.7) and the lane decoder's
        #: speedup over the scalar oracle (target >= 30x on a 1M-symbol
        #: stream).  None when the caller skipped the measurement.
        "read": read_extras,
        #: The serve saturation cell: N concurrent clients through the
        #: ingest daemon vs the serial sum of N direct facade writes
        #: (``ratio`` >= 1.0 is the aggregate-throughput target).  None
        #: when the caller skipped the measurement.
        "serve": serve_saturation,
        "strategy_choices": {
            scenario: idx[("tune", scenario, "serial")].fingerprint
            for scenario in sorted({c.scenario for c in cells})
            if ("tune", scenario, "serial") in idx
        },
    }


def serial_seconds(report: dict) -> dict[str, float]:
    """``bench/scenario`` → serial wall-clock, the regression-gate basis."""
    return {
        f"{c['bench']}/{c['scenario']}": c["seconds"]
        for c in report["cells"]
        if c["backend"] == "serial"
    }


def check_regressions(
    report: dict,
    baseline: dict,
    max_regression: float,
    abs_slack: float = 0.05,
) -> "list[str]":
    """Serial wall-clock regressions beyond the tolerated ratio.

    ``abs_slack`` (seconds) is an absolute noise floor on top of the
    relative tolerance: quick-mode cells run in milliseconds, where
    ordinary scheduler jitter alone exceeds any percentage gate, so a
    cell only fails when it is both >``max_regression`` slower *and* more
    than ``abs_slack`` seconds over its baseline.
    """
    if "quick" in baseline and bool(baseline["quick"]) != bool(report.get("quick")):
        # Quick and full sizes differ by design; comparing them produces
        # either a spurious regression or a silent pass.
        mode = "quick" if baseline["quick"] else "full"
        return [f"baseline was recorded in {mode} mode; rerun with matching sizes"]
    current = serial_seconds(report)
    base = baseline.get("serial_seconds", {})
    failures = []
    for key, ref in sorted(base.items()):
        now = current.get(key)
        if now is None:
            failures.append(f"{key}: missing from this run (baseline has it)")
        elif ref > 0 and now > ref * (1.0 + max_regression) and now - ref > abs_slack:
            failures.append(
                f"{key}: {now:.4f}s vs baseline {ref:.4f}s "
                f"(+{(now / ref - 1.0) * 100.0:.0f}% > {max_regression * 100.0:.0f}% "
                f"and +{now - ref:.3f}s > {abs_slack:.3f}s slack)"
            )
    return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Executor microbenchmark suite (plan/compress/write/tune).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--scenarios", default=",".join(BENCH_SCENARIOS),
                        help="comma-separated scenario names")
    parser.add_argument("--backends", default=",".join(EXECUTOR_NAMES),
                        help="comma-separated executor backends (serial is "
                             "always included as the speedup reference)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per cell (default: 2 quick, 3 full)")
    parser.add_argument("--out", default=None,
                        help="output directory for BENCH_<sha>.json "
                             "(default: results/)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate serial wall-clock against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="tolerated serial slowdown vs baseline (default 0.25)")
    parser.add_argument("--regression-slack", type=float, default=0.05,
                        help="absolute seconds a cell must exceed its baseline "
                             "by before the relative gate applies (noise floor "
                             "for millisecond-scale cells; default 0.05)")
    parser.add_argument("--skip-serve", action="store_true",
                        help="skip the serve saturation cell (concurrent "
                             "daemon clients vs the serial facade sum)")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write/refresh the baseline JSON and exit 0")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if "serial" not in backends:
        backends.insert(0, "serial")
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)
    cells = run_suite(scenarios, backends, args.quick, repeats)
    overhead = (
        measure_facade_overhead(scenarios, args.quick, repeats)
        if {"write", "facade"} <= set(BENCHES)
        else None
    )
    read_extras = measure_read_extras(args.quick, repeats)
    serve_saturation = (
        None if args.skip_serve
        else measure_serve_saturation(args.quick, repeats)
    )
    report = build_report(
        cells, args.quick, repeats,
        facade_overhead=overhead, read_extras=read_extras,
        serve_saturation=serve_saturation,
    )

    out_dir = args.out or results_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['git_sha']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    rows = [
        {
            "bench": c.bench, "scenario": c.scenario, "backend": c.backend,
            "seconds": c.seconds,
            "speedup": report["speedups"][f"{c.bench}/{c.scenario}"].get(c.backend, 1.0),
            "identical": report["fingerprints"][f"{c.bench}/{c.scenario}"]["identical"],
        }
        for c in cells
    ]
    print(format_table(f"repro.bench ({'quick' if args.quick else 'full'})", rows))
    if report["facade_overhead"]:
        parts = ", ".join(
            f"{sc}: {ov:+.1%}" for sc, ov in sorted(report["facade_overhead"].items())
        )
        print(f"\nfacade overhead vs direct driver (serial): {parts}")
    if report.get("read"):
        hot = report["read"]["hotspot"]
        dec = report["read"]["decode_speedup"]
        print(
            f"\nhotspot 80/20 ({hot['num_reads']} reads): "
            f"cache hit-rate {hot['cache_hit_rate']:.3f}, "
            f"p50 {hot['p50_ms']:.3f}ms, p99 {hot['p99_ms']:.3f}ms"
        )
        print(
            f"huffman decode ({dec['nsymbols']} symbols): "
            f"vectorized {dec['vectorized_seconds']:.3f}s vs "
            f"scalar {dec['scalar_seconds']:.3f}s -> {dec['speedup']:.1f}x"
        )
    if report.get("serve"):
        sv = report["serve"]
        print(
            f"\nserve saturation ({sv['n_clients']} clients, "
            f"{sv['payload_mb']:.1f} MB): serial sum {sv['serial_seconds']:.3f}s, "
            f"served {sv['served_seconds']:.3f}s -> ratio {sv['ratio']:.2f}x "
            f"({sv['served_mbps']:.1f} MB/s aggregate)"
        )
    print(f"\nwrote {path}")

    status = 0
    mismatched = [k for k, v in report["fingerprints"].items() if not v["identical"]]
    if mismatched:
        print(f"FINGERPRINT MISMATCH across backends: {mismatched}")
        status = 1

    if args.write_baseline:
        baseline = {
            "schema": SCHEMA,
            "git_sha": report["git_sha"],
            "quick": args.quick,
            "serial_seconds": serial_seconds(report),
        }
        os.makedirs(os.path.dirname(args.write_baseline) or ".", exist_ok=True)
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
        print(f"wrote baseline {args.write_baseline}")
        return status

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        failures = check_regressions(
            report, baseline, args.max_regression, args.regression_slack
        )
        if failures:
            print("PERF REGRESSION vs", args.baseline)
            for line in failures:
                print(" ", line)
            status = 1
        else:
            print(f"no serial regressions vs {args.baseline} "
                  f"(tolerance {args.max_regression * 100.0:.0f}% "
                  f"+ {args.regression_slack:.3f}s slack)")
    return status


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
