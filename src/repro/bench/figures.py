"""Data series behind every figure/table of the paper's evaluation.

Each ``figNN_*`` function returns an :class:`~repro.bench.harness.
ExperimentResult` whose rows are the series the corresponding paper figure
plots.  Default parameters are scaled down (minutes, one machine); every
function exposes the knobs to run closer to paper scale.

Strategy dispatch goes through the ``STRATEGIES`` table in
:mod:`repro.core.strategy` (``simulate_strategy(name, ...)`` for each
name), so the breakdown, ratio sweep, and scaling figures cover the same
four strategies in paper order.

The ``benchmarks/`` pytest tree runs each function (README.md, "Benchmarks
and the perf gate") and records its series as ``results/figNN_*.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import ExperimentResult
from repro.compression.sz import SZCompressor, parse_stream_info
from repro.core.config import PipelineConfig, extra_space_for_weight
from repro.core.scheduler import CompressionTask, optimize_order
from repro.core.strategy import STRATEGIES
from repro.core.workload import Workload, build_workload, scale_workload
from repro.core.writers import SimResult, simulate_strategy
from repro.data.fields import layered_field
from repro.data.nyx import NyxGenerator
from repro.data.partition import grid_partition
from repro.data.timesteps import TimestepSeries
from repro.data.vpic import VPICGenerator
from repro.modeling.calibration import (
    calibrate_throughput_model,
    calibrate_write_throughput,
    measure_compression_points,
)
from repro.modeling.write_model import StableWriteModel
from repro.sim.engine import Environment
from repro.sim.machine import BEBOP, SUMMIT, MachineProfile

#: Target bit-rate used by the paper's trade-off and scaling experiments.
PAPER_TARGET_BITRATE = 2.0

#: Bound scales that land the synthetic Nyx / VPIC snapshots near
#: bit-rate 2 (found once by bisecting ``bound_scale`` on
#: ``build_workload(...).overall_bit_rate``; pinned so the benchmarks are
#: deterministic and fast).
NYX_BITRATE2_BOUND_SCALE = 4.0
VPIC_BITRATE2_BOUND_SCALE = 1.6


# ---------------------------------------------------------------------------
# Fig. 1 — bit-rate distribution over partitions
# ---------------------------------------------------------------------------

def fig01_bitrate_distribution(
    nranks: int = 512, shape=(64, 64, 64), seed: int = 1, nbins: int = 24
) -> ExperimentResult:
    """Compression bit-rate histogram over one field's partitions.

    The paper's Fig. 1 compresses 512 partitions of a Nyx field with one
    configuration and shows a wide bit-rate spread — the reason naive
    pre-allocation fails.
    """
    gen = NyxGenerator(shape, seed=seed)
    field = gen.field("baryon_density")
    parts = grid_partition(shape, nranks)
    codec = SZCompressor(bound=gen.error_bound("baryon_density"), mode="abs")
    rates = []
    for p in parts:
        stream = codec.compress(np.ascontiguousarray(p.extract(field)))
        rates.append(8.0 * len(stream) / p.n_values)
    rates = np.array(rates)
    hist, edges = np.histogram(rates, bins=nbins)
    rows = [
        {"bitrate_lo": float(a), "bitrate_hi": float(b), "partitions": int(h)}
        for a, b, h in zip(edges[:-1], edges[1:], hist)
    ]
    return ExperimentResult(
        name="fig01_bitrate_distribution",
        title="Fig.1 — bit-rate distribution over partitions (baryon density)",
        rows=rows,
        meta={
            "nranks": nranks,
            "spread": float(rates.max() / rates.min()),
            "min": float(rates.min()),
            "max": float(rates.max()),
            "mean": float(rates.mean()),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 5 / Fig. 6 — single-core compression throughput vs bit-rate
# ---------------------------------------------------------------------------

def fig05_throughput_curve(
    machine: MachineProfile = BEBOP, shape=(48, 48, 48), seed: int = 2
) -> ExperimentResult:
    """Throughput vs bit-rate for Nyx and RTM-like fields (paper Fig. 5)."""
    gen = NyxGenerator(shape, seed=seed)
    noisy = machine.with_noise(0.04)
    samples = {
        "nyx_baryon": gen.field("baryon_density").astype(np.float32),
        "nyx_velocity": gen.field("velocity_x").astype(np.float32),
        "rtm_velocity": layered_field(shape, seed=seed).astype(np.float32),
    }
    rows = []
    for label, data in samples.items():
        b, t = measure_compression_points(
            data, noisy, bounds=tuple(10.0 ** (-k) for k in range(1, 8)), rng=seed
        )
        for br, thr in zip(b, t):
            rows.append({"sample": label, "bit_rate": float(br), "throughput_MBps": float(thr)})
    lo, hi = machine.cost_model.bounds_mbps()
    return ExperimentResult(
        name="fig05_throughput_curve",
        title="Fig.5 — single-core compression throughput vs bit-rate",
        rows=rows,
        meta={"machine": machine.name, "band_lo_MBps": lo, "band_hi_MBps": hi},
    )


def fig06_minmax_throughput(
    machine: MachineProfile = BEBOP, n_samples: int = 30, shape=(32, 32, 32)
) -> ExperimentResult:
    """Min/max throughput across many data samples (paper Fig. 6)."""
    noisy = machine.with_noise(0.04)
    fields = ("baryon_density", "dark_matter_density", "temperature", "velocity_x")
    rows = []
    for i in range(n_samples):
        gen = NyxGenerator(shape, seed=1000 + i)
        name = fields[i % len(fields)]
        data = gen.field(name)
        b, t = measure_compression_points(data, noisy, bounds=(1e-1, 1e-4, 1e-7), rng=i)
        rows.append(
            {
                "sample": i,
                "field": name,
                "min_MBps": float(t.min()),
                "max_MBps": float(t.max()),
            }
        )
    mins = np.array([r["min_MBps"] for r in rows])
    maxs = np.array([r["max_MBps"] for r in rows])
    return ExperimentResult(
        name="fig06_minmax_throughput",
        title="Fig.6 — min/max compression throughput across samples",
        rows=rows,
        meta={
            "machine": machine.name,
            "global_min": float(mins.min()),
            "global_max": float(maxs.max()),
            "min_spread": float(mins.max() / mins.min()),
            "max_spread": float(maxs.max() / maxs.min()),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 7 — per-process independent-write throughput vs size
# ---------------------------------------------------------------------------

def fig07_write_throughput(
    machine: MachineProfile = BEBOP,
    nprocs: int = 128,
    sizes=(1, 2, 5, 10, 20, 50, 100),
) -> ExperimentResult:
    """Per-process write throughput vs data size (paper Fig. 7)."""
    rows = []
    for mb in sizes:
        size = int(mb * 2**20)
        env = Environment()
        fs = machine.make_filesystem(env, nranks=nprocs)
        finish: dict[int, float] = {}

        def rank(i: int):
            t0 = env.now
            yield fs.independent_write(size)
            finish[i] = env.now - t0

        for i in range(nprocs):
            env.process(rank(i))
        env.run()
        thr = np.array([size / dt for dt in finish.values()])
        rows.append(
            {
                "size_MB": mb,
                "mean_MBps": float(thr.mean() / 1e6),
                "min_MBps": float(thr.min() / 1e6),
                "max_MBps": float(thr.max() / 1e6),
            }
        )
    return ExperimentResult(
        name="fig07_write_throughput",
        title="Fig.7 — per-process independent write throughput vs size",
        rows=rows,
        meta={"machine": machine.name, "nprocs": nprocs},
    )


# ---------------------------------------------------------------------------
# Fig. 9 — extra-space ratio mapping
# ---------------------------------------------------------------------------

def fig09_extra_space_mapping(n_points: int = 11) -> ExperimentResult:
    """Performance/storage weight → extra-space ratio mapping (Fig. 9)."""
    rows = []
    for w in np.linspace(0.0, 1.0, n_points):
        rows.append(
            {"performance_weight": float(w), "extra_space_ratio": extra_space_for_weight(float(w))}
        )
    return ExperimentResult(
        name="fig09_extra_space_mapping",
        title="Fig.9 — weight → extra-space ratio mapping",
        rows=rows,
        meta={"domain": [1.1, 1.43], "default": 1.25},
    )


# ---------------------------------------------------------------------------
# Figs. 11-13 — prediction accuracy scatter
# ---------------------------------------------------------------------------

def fig11_compression_time_accuracy(
    machine: MachineProfile = BEBOP,
    calib_shape=(48, 48, 48),
    eval_shape=(64, 64, 64),
    nranks: int = 64,
    seed: int = 4,
) -> ExperimentResult:
    """Predicted vs actual compression time per partition (paper Fig. 11).

    Offline calibration on one field (baryon density), evaluation across
    all fields of a partitioned snapshot — the paper's exact methodology.
    """
    calib_gen = NyxGenerator(calib_shape, seed=seed)
    model = calibrate_throughput_model(
        calib_gen.field("baryon_density").astype(np.float32), machine, rng=seed
    )
    noisy = machine.with_noise(0.05)
    gen = NyxGenerator(eval_shape, seed=seed + 1)
    parts = grid_partition(eval_shape, nranks)
    rows = []
    rng = np.random.default_rng(seed)
    for fname in gen.field_names:
        field = gen.field(fname)
        codec = SZCompressor(bound=gen.error_bound(fname), mode="abs")
        for p in parts[:: max(1, len(parts) // 16)]:
            data = np.ascontiguousarray(p.extract(field))
            stream = codec.compress(data)
            info = parse_stream_info(stream)
            actual = noisy.cost_model.compression_seconds(
                data.size, info.bit_rate, info.n_outliers, rng=rng
            )
            predicted = model.predict_seconds(data.size, info.bit_rate)
            rows.append(
                {
                    "field": fname,
                    "bit_rate": float(info.bit_rate),
                    "actual_s": float(actual),
                    "predicted_s": float(predicted),
                    "rel_error": float(abs(predicted - actual) / actual),
                }
            )
    errs = np.array([r["rel_error"] for r in rows])
    return ExperimentResult(
        name="fig11_compression_time_accuracy",
        title="Fig.11 — compression-time prediction accuracy",
        rows=rows,
        meta={
            "machine": machine.name,
            "median_rel_error": float(np.median(errs)),
            "p90_rel_error": float(np.percentile(errs, 90)),
            "fitted": {"cmin": model.cmin_mbps, "cmax": model.cmax_mbps, "a": model.a},
        },
    )


def fig12_compression_time_transfer(
    machine: MachineProfile = BEBOP, seed: int = 5
) -> ExperimentResult:
    """Fig. 12: the 48³-fitted parameters transferred to a larger snapshot."""
    result = fig11_compression_time_accuracy(
        machine, calib_shape=(32, 32, 32), eval_shape=(80, 80, 80), nranks=64, seed=seed
    )
    return ExperimentResult(
        name="fig12_compression_time_transfer",
        title="Fig.12 — compression-time prediction transferred across scales",
        rows=result.rows,
        meta=result.meta,
    )


def fig13_write_time_accuracy(
    machine: MachineProfile = BEBOP,
    nranks: int = 64,
    shape=(64, 64, 64),
    seed: int = 6,
) -> ExperimentResult:
    """Predicted (Eq. 2) vs simulated actual write time (paper Fig. 13)."""
    wmodel = calibrate_write_throughput(machine, nprocs=min(nranks, 128))
    wl = build_workload("nyx", nranks=min(nranks, 8), shape=shape, seed=seed)
    wl = scale_workload(wl, nranks=nranks, values_per_partition=256**3)
    actual_sizes = wl.matrix("actual_nbytes")
    # Simulate all ranks writing one field's partitions concurrently.
    rows = []
    for f, fname in enumerate(wl.fields):
        env = Environment()
        fs = machine.make_filesystem(env, nranks=nranks)
        finish: dict[int, float] = {}

        def rank(r: int, nbytes: float):
            t0 = env.now
            yield fs.independent_write(nbytes)
            finish[r] = env.now - t0

        for r in range(nranks):
            env.process(rank(r, float(actual_sizes[f, r])))
        env.run()
        for r in range(0, nranks, max(1, nranks // 16)):
            s = wl.stats[f][r]
            rows.append(
                {
                    "field": fname,
                    "bit_rate": float(s.actual_bit_rate),
                    "actual_s": float(finish[r]),
                    "predicted_s": float(
                        StableWriteModel(wmodel.cthr_bytes_per_s).predict_seconds_for_bytes(
                            float(actual_sizes[f, r])
                        )
                    ),
                }
            )
    errs = np.array([abs(r["predicted_s"] - r["actual_s"]) / r["actual_s"] for r in rows])
    return ExperimentResult(
        name="fig13_write_time_accuracy",
        title="Fig.13 — write-time prediction accuracy",
        rows=rows,
        meta={
            "machine": machine.name,
            "cthr_MBps": wmodel.cthr_bytes_per_s / 1e6,
            "median_rel_error": float(np.median(errs)),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 14 / Fig. 15 — extra-space trade-off and time-step consistency
# ---------------------------------------------------------------------------

def _tradeoff_point(
    workload: Workload, machine: MachineProfile, rspace: float
) -> tuple[float, float, SimResult]:
    """(performance overhead, storage overhead) at one extra-space ratio.

    Performance overhead is measured exactly as the paper does: write time
    with overflow handling vs. write time without (compression excluded).
    """
    config = PipelineConfig(extra_space_ratio=rspace)
    res = simulate_strategy("reorder", workload, machine, config)
    ref = simulate_strategy("reorder", workload, machine, config, handle_overflow=False)
    perf_overhead = (res.write_seconds - ref.write_seconds) / max(ref.write_seconds, 1e-12)
    return max(0.0, perf_overhead), res.storage_overhead_vs_ideal, res


def fig14_extra_space_tradeoff(
    dataset: str = "nyx",
    machine: MachineProfile = SUMMIT,
    nranks: int = 256,
    rspace_grid=(1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.43),
    seed: int = 7,
    base_nranks: int = 8,
    values_per_partition: int = 256**3,
) -> ExperimentResult:
    """Write-perf overhead vs storage overhead across Rspace (Fig. 14).

    Target bit-rate 2 as in the paper (bound scale pre-fitted).
    """
    scale = NYX_BITRATE2_BOUND_SCALE if dataset == "nyx" else VPIC_BITRATE2_BOUND_SCALE
    wl = build_workload(
        dataset,
        nranks=base_nranks,
        shape=(64, 64, 64),
        n_particles=1 << 19,
        bound_scale=scale,
        seed=seed,
        include_particles=(dataset == "nyx"),
    )
    wl = scale_workload(wl, nranks=nranks, values_per_partition=values_per_partition)
    rows = []
    for rspace in rspace_grid:
        perf, storage, res = _tradeoff_point(wl, machine, float(rspace))
        rows.append(
            {
                "rspace": float(rspace),
                "perf_overhead": perf,
                "storage_overhead": storage,
                "overflow_partitions": res.n_overflow_partitions,
                "overflow_fraction": res.n_overflow_partitions
                / (res.nranks * res.nfields),
            }
        )
    return ExperimentResult(
        name=f"fig14_extra_space_tradeoff_{dataset}_{machine.name}",
        title=f"Fig.14 — extra-space trade-off ({dataset}, {machine.name})",
        rows=rows,
        meta={
            "dataset": dataset,
            "machine": machine.name,
            "nranks": nranks,
            "bit_rate": wl.overall_bit_rate,
        },
    )


def fig15_timestep_consistency(
    machine: MachineProfile = SUMMIT,
    n_steps: int = 5,
    nranks: int = 256,
    shape=(48, 48, 48),
    seed: int = 8,
) -> ExperimentResult:
    """Overhead consistency across time-steps at Rspace = 1.25 (Fig. 15)."""
    series = TimestepSeries(shape, n_steps=n_steps, seed=seed)
    rows = []
    for step in range(n_steps):
        wl = build_workload(
            "nyx",
            nranks=8,
            shape=shape,
            seed=seed,
            bound_scale=NYX_BITRATE2_BOUND_SCALE,
            growth=series.growth_factor(step),
        )
        wl = scale_workload(wl, nranks=nranks, values_per_partition=256**3)
        perf, storage, res = _tradeoff_point(wl, machine, 1.25)
        rows.append(
            {
                "step": step,
                "redshift": series.redshifts[step],
                "perf_overhead": perf,
                "storage_overhead": storage,
                "bit_rate": wl.overall_bit_rate,
            }
        )
    perf = np.array([r["perf_overhead"] for r in rows])
    stor = np.array([r["storage_overhead"] for r in rows])
    return ExperimentResult(
        name="fig15_timestep_consistency",
        title="Fig.15 — overhead consistency across time-steps (Rspace=1.25)",
        rows=rows,
        meta={
            "perf_range": [float(perf.min()), float(perf.max())],
            "storage_range": [float(stor.min()), float(stor.max())],
        },
    )


# ---------------------------------------------------------------------------
# Fig. 16 — breakdown of the four solutions
# ---------------------------------------------------------------------------

def fig16_breakdown(
    machine: MachineProfile = SUMMIT,
    nranks: int = 512,
    seed: int = 3,
    values_per_partition: int = 256**3,
) -> ExperimentResult:
    """Time breakdown of nocomp/filter/overlap/reorder (paper Fig. 16).

    9-field Nyx (the 4096³ configuration), paper error bounds.
    """
    wl = build_workload(
        "nyx", nranks=8, shape=(64, 64, 64), seed=seed, include_particles=True
    )
    wl = scale_workload(wl, nranks=nranks, values_per_partition=values_per_partition)
    results: dict[str, SimResult] = {}
    rows = []
    for strat in STRATEGIES:
        res = simulate_strategy(strat, wl, machine)
        results[strat] = res
        rows.append(
            {
                "solution": strat,
                "total_s": res.makespan_seconds,
                "compress_s": res.compress_seconds,
                "write_s": res.write_seconds,
                "exposed_write_s": res.write_exposed_seconds,
                "predict_s": res.predict_seconds,
                "allgather_s": res.allgather_seconds,
                "overflow_s": res.overflow_seconds,
                "eff_ratio": res.effective_ratio,
            }
        )
    meta = {
        "machine": machine.name,
        "nranks": nranks,
        "ideal_ratio": results["reorder"].ideal_ratio,
        "effective_ratio": results["reorder"].effective_ratio,
        "speedup_filter_vs_nocomp": results["filter"].speedup_over(results["nocomp"]),
        "speedup_overlap_vs_filter": results["overlap"].speedup_over(results["filter"]),
        "speedup_reorder_vs_overlap": results["reorder"].speedup_over(results["overlap"]),
        "speedup_reorder_vs_nocomp": results["reorder"].speedup_over(results["nocomp"]),
        "speedup_reorder_vs_filter": results["reorder"].speedup_over(results["filter"]),
        "storage_overhead_vs_original": results["reorder"].storage_overhead_vs_original,
        "paper": {
            "filter_vs_nocomp": 1.87,
            "overlap_vs_filter": 1.79,
            "reorder_vs_overlap": 1.30,
            "reorder_vs_nocomp": 4.46,
            "reorder_vs_filter": 2.91,
        },
    }
    return ExperimentResult(
        name="fig16_breakdown",
        title="Fig.16 — solution breakdown (Nyx 9 fields)",
        rows=rows,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Figs. 17/18 — ratio sweep and weak scaling
# ---------------------------------------------------------------------------

def fig17_ratio_sweep(
    dataset: str = "nyx",
    machine: MachineProfile = SUMMIT,
    nranks: int = 256,
    bound_scales=(0.02, 0.2, 1.0, 4.0, 40.0),
    seed: int = 9,
    values_per_partition: int = 256**3,
) -> ExperimentResult:
    """Solutions vs compression ratio (paper Figs. 17a/b + 18a/b)."""
    rows = []
    for scale in bound_scales:
        wl = build_workload(
            dataset,
            nranks=8,
            shape=(64, 64, 64),
            n_particles=1 << 19,
            bound_scale=float(scale),
            seed=seed,
            include_particles=(dataset == "nyx"),
        )
        wl = scale_workload(wl, nranks=nranks, values_per_partition=values_per_partition)
        res = {s: simulate_strategy(s, wl, machine) for s in STRATEGIES}
        rows.append(
            {
                "bound_scale": float(scale),
                "ratio": wl.overall_ratio,
                "bit_rate": wl.overall_bit_rate,
                "nocomp_s": res["nocomp"].makespan_seconds,
                "filter_s": res["filter"].makespan_seconds,
                "overlap_s": res["overlap"].makespan_seconds,
                "reorder_s": res["reorder"].makespan_seconds,
                "improve_vs_filter": res["reorder"].speedup_over(res["filter"]),
                "improve_vs_nocomp": res["reorder"].speedup_over(res["nocomp"]),
                "reorder_gain": res["overlap"].makespan_seconds
                / res["reorder"].makespan_seconds,
                "storage_overhead": res["reorder"].storage_overhead_vs_ideal,
            }
        )
    return ExperimentResult(
        name=f"fig17_ratio_sweep_{dataset}",
        title=f"Fig.17a/b+18a/b — performance vs compression ratio ({dataset})",
        rows=rows,
        meta={"dataset": dataset, "machine": machine.name, "nranks": nranks},
    )


def fig17_scaling(
    dataset: str = "nyx",
    machine: MachineProfile = SUMMIT,
    scales=(256, 512, 1024, 2048, 4096),
    seed: int = 10,
    values_per_partition: int = 256**3,
) -> ExperimentResult:
    """Weak scaling of the solutions (paper Figs. 17c/d + 18c/d).

    Fixed per-process partition size, target bit-rate 2, as in the paper.
    """
    scale_factor = NYX_BITRATE2_BOUND_SCALE if dataset == "nyx" else VPIC_BITRATE2_BOUND_SCALE
    wl_base = build_workload(
        dataset,
        nranks=8,
        shape=(64, 64, 64),
        n_particles=1 << 19,
        bound_scale=scale_factor,
        seed=seed,
        include_particles=(dataset == "nyx"),
    )
    rows = []
    for nranks in scales:
        wl = scale_workload(wl_base, nranks=int(nranks), values_per_partition=values_per_partition)
        res = {s: simulate_strategy(s, wl, machine) for s in STRATEGIES}
        rows.append(
            {
                "nranks": int(nranks),
                "nocomp_s": res["nocomp"].makespan_seconds,
                "filter_s": res["filter"].makespan_seconds,
                "overlap_s": res["overlap"].makespan_seconds,
                "reorder_s": res["reorder"].makespan_seconds,
                "improve_vs_filter": res["reorder"].speedup_over(res["filter"]),
                "improve_vs_nocomp": res["reorder"].speedup_over(res["nocomp"]),
                "reorder_gain": res["overlap"].makespan_seconds
                / res["reorder"].makespan_seconds,
                "storage_overhead": res["reorder"].storage_overhead_vs_ideal,
                "allgather_s": res["reorder"].allgather_seconds,
                "overflow_s": res["reorder"].overflow_seconds,
            }
        )
    return ExperimentResult(
        name=f"fig17_scaling_{dataset}",
        title=f"Fig.17c/d+18c/d — weak scaling ({dataset}, target bit-rate 2)",
        rows=rows,
        meta={"dataset": dataset, "machine": machine.name},
    )


# ---------------------------------------------------------------------------
# Table I and micro-claims
# ---------------------------------------------------------------------------

def table1_datasets() -> ExperimentResult:
    """Dataset inventory (paper Table I), with our synthetic stand-ins."""
    rows = [
        {
            "name": "nyx",
            "description": "Cosmology simulation (synthetic GRF stand-in)",
            "paper_scale": "4096^3 / 2048^3 / 1024^3 / 512^3",
            "paper_size": "2.47TB / 206.15GB / 25.76GB / 3.22GB",
            "our_generator": "NyxGenerator(shape)",
            "fields": 6,
        },
        {
            "name": "nyx-particles",
            "description": "4096^3 configuration adds particle velocities",
            "paper_scale": "4096^3",
            "paper_size": "2.47TB",
            "our_generator": "NyxGenerator(shape, include_particles=True)",
            "fields": 9,
        },
        {
            "name": "vpic",
            "description": "Particle simulation (synthetic Maxwellian stand-in)",
            "paper_scale": "161,297,451,573 particles",
            "paper_size": "4.62TB",
            "our_generator": "VPICGenerator(n_particles)",
            "fields": 8,
        },
    ]
    # Verify the logical-size arithmetic our generators report.
    g = NyxGenerator((64, 64, 64))
    v = VPICGenerator(1000)
    assert g.logical_nbytes() == 64**3 * 4 * 6
    assert v.logical_nbytes() == 1000 * 4 * 8
    return ExperimentResult(
        name="table1_datasets", title="Table I — tested datasets", rows=rows, meta={}
    )


def scheduler_overhead() -> ExperimentResult:
    """Section III-E claim: Algorithm 1's cost is negligible vs compression.

    The paper quotes 0.17% even at the extreme (N=32768 values, n=100
    fields).  Our scheduler is pure Python while the quoted compression is
    C++, so absolute percentages differ; the reproducible claims are (a)
    the realistic case (a handful of fields, 256³ partitions) is far below
    1%, and (b) cost grows as O(n²·n) in the field count, independent of N.
    """
    rng = np.random.default_rng(0)
    rows = []
    for n_values, n_fields in ((256**3, 9), (256**3, 32), (32768, 100)):
        tasks = [
            CompressionTask(
                str(i), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 2.0))
            )
            for i in range(n_fields)
        ]
        t0 = time.perf_counter()
        optimize_order(tasks)
        opt_seconds = time.perf_counter() - t0
        comp_seconds = BEBOP.cost_model.compression_seconds(n_values * n_fields, 2.0)
        rows.append(
            {
                "n_values": n_values,
                "n_fields": n_fields,
                "optimize_s": opt_seconds,
                "compression_s": comp_seconds,
                "overhead_fraction": opt_seconds / comp_seconds,
            }
        )
    return ExperimentResult(
        name="scheduler_overhead",
        title="Section III-E — scheduling overhead vs compression",
        rows=rows,
        meta={"paper_claim_extreme": 0.0017},
    )
