"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these isolate the contribution of each mechanism:

* scheduler ablation: original order vs Algorithm 1 vs Johnson's rule
  (the optimal oracle for the TIME model);
* lossless-estimator ablation: the paper-faithful RLE analysis, the one
  estimator, at normal and extreme ratios;
* Eq. (3) ablation: high-ratio extra-space boost on/off.
"""

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult, save_result
from repro.compression import SZCompressor
from repro.core import build_workload
from repro.core.offsets import OffsetTable
from repro.core.overflow import OverflowPlan
from repro.core.scheduler import (
    CompressionTask,
    johnson_order,
    optimize_order,
    queue_time,
)
from repro.core.workload import scale_workload
from repro.core.writers import default_models
from repro.data import NyxGenerator
from repro.modeling import RatioQualityModel
from repro.sim import SUMMIT


def _scheduler_ablation() -> ExperimentResult:
    wl = build_workload("nyx", nranks=8, shape=(48, 48, 48), seed=13,
                        include_particles=True)
    wl = scale_workload(wl, nranks=64, values_per_partition=256**3)
    tmodel, wmodel = default_models(SUMMIT, 64)
    nv, pred = wl.matrix("n_values"), wl.matrix("predicted_nbytes")
    rows = []
    for r in range(0, 64, 8):
        tasks = [
            CompressionTask(
                str(f),
                tmodel.predict_seconds(int(nv[f, r]), 8.0 * pred[f, r] / nv[f, r]),
                wmodel.predict_seconds_for_bytes(float(pred[f, r])),
            )
            for f in range(wl.nfields)
        ]
        base = queue_time(tasks)
        heur = queue_time(optimize_order(tasks))
        opt = queue_time(johnson_order(tasks))
        rows.append(
            {
                "rank": r,
                "original_s": base,
                "algorithm1_s": heur,
                "johnson_s": opt,
                "alg1_gain": base / heur,
                "alg1_vs_optimal": heur / opt,
            }
        )
    return ExperimentResult(
        name="ablation_scheduler",
        title="Ablation — original vs Algorithm 1 vs Johnson (TIME model)",
        rows=rows,
        meta={},
    )


def test_scheduler_ablation(run_once):
    res = run_once(_scheduler_ablation)
    save_result(res)
    for row in res.rows:
        # Algorithm 1 never loses to the original order and sits within a
        # few percent of the provably optimal Johnson schedule.
        assert row["alg1_gain"] >= 1.0 - 1e-9
        assert row["alg1_vs_optimal"] <= 1.05


def _estimator_ablation() -> ExperimentResult:
    gen = NyxGenerator((48, 48, 48), seed=14)
    errs = []
    for name in gen.field_names:
        data = gen.field(name)
        for scale in (1.0, 30.0):  # normal and extreme-ratio regimes
            codec = SZCompressor(bound=gen.error_bound(name) * scale, mode="abs")
            pred = RatioQualityModel(codec).predict(data)
            actual = len(codec.compress(data))
            errs.append(abs(pred.predicted_nbytes - actual) / actual)
    errs = np.array(errs)
    rows = [
        {
            "estimator": "rle",
            "cells": int(errs.size),
            "median_err": float(np.median(errs)),
            "p90_err": float(np.percentile(errs, 90)),
            "max_err": float(errs.max()),
        }
    ]
    return ExperimentResult(
        name="ablation_lossless_estimator",
        title="Ablation — RLE lossless estimation at normal and extreme ratios",
        rows=rows,
        meta={},
    )


def test_estimator_ablation(run_once):
    res = run_once(_estimator_ablation)
    save_result(res)
    (row,) = res.rows
    # Every cell is deterministic, so the row is pinned; its extreme-ratio
    # cells are the weak regime Section III-D describes.
    assert row["cells"] == 12
    assert row["median_err"] == pytest.approx(0.1805, abs=5e-5)
    assert row["p90_err"] == pytest.approx(0.8459, abs=5e-5)
    assert row["max_err"] == pytest.approx(1.4251, abs=5e-5)


def _eq3_ablation() -> ExperimentResult:
    """How much overflow does the Eq. (3) boost prevent at high ratios?"""
    wl = build_workload(
        "nyx", nranks=8, shape=(48, 48, 48), seed=15, bound_scale=60.0
    )  # extreme ratios: the model's weak regime
    pred = wl.matrix("predicted_nbytes")
    orig = wl.matrix("original_nbytes")
    actual = wl.matrix("actual_nbytes")
    rows = []
    for label, rspace_fn in (
        ("eq3_on", lambda: OffsetTable.compute(pred, orig, 1.25, 4096)),
        ("eq3_off", lambda: OffsetTable.compute(pred, pred * 2, 1.25, 4096)),
    ):
        # eq3_off trick: claiming original==2x predicted keeps every ratio
        # below the threshold, disabling the boost while preserving slots.
        table = rspace_fn()
        plan = OverflowPlan.compute(actual, table.reserved, table.data_end)
        rows.append(
            {
                "variant": label,
                "overflow_partitions": plan.n_overflowing,
                "overflow_bytes": plan.total_overflow,
                "reserved_total": table.total_reserved,
            }
        )
    return ExperimentResult(
        name="ablation_eq3",
        title="Ablation — Eq.(3) extra-space boost at extreme ratios",
        rows=rows,
        meta={"bound_scale": 60.0},
    )


def test_eq3_ablation(run_once):
    res = run_once(_eq3_ablation)
    save_result(res)
    on = next(r for r in res.rows if r["variant"] == "eq3_on")
    off = next(r for r in res.rows if r["variant"] == "eq3_off")
    # The boost spends more reservation to reduce overflow events.
    assert on["reserved_total"] >= off["reserved_total"]
    assert on["overflow_partitions"] <= off["overflow_partitions"]
