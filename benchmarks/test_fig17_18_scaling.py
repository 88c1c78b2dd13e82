"""Figs. 17c/d + 18c/d — weak scaling from 256 to 4096 processes."""

import pytest

from repro.bench.figures import fig17_scaling
from repro.bench.harness import save_result


@pytest.mark.parametrize("dataset", ["nyx", "vpic"])
def test_fig17_scaling(run_once, dataset):
    res = run_once(
        fig17_scaling, dataset, scales=(256, 512, 1024, 2048, 4096)
    )
    save_result(res)
    rows = sorted(res.rows, key=lambda r: r["nranks"])
    # Weak scaling: improvement over the filter baseline is stable-to-
    # improving with scale (paper: "a larger scale slightly benefits our
    # solution").
    improvements = [r["improve_vs_filter"] for r in rows]
    assert min(improvements) > 1.0
    assert improvements[-1] >= improvements[0] * 0.9
    # Storage overhead is scale-independent (per-partition property).
    overheads = [r["storage_overhead"] for r in rows]
    assert max(overheads) - min(overheads) < 0.1
    # All-gather time grows with scale (paper Section IV-D's caveat).
    ag = [r["allgather_s"] for r in rows]
    assert ag[-1] > ag[0]
