"""Workload construction: per-partition compression statistics.

A :class:`Workload` is everything the write strategies need to know about
one snapshot's partitions: per (field, rank) the value count, the *actual*
compressed size (from really compressing the synthetic data with the real
codec), the *predicted* size (from really running the ratio model), and the
stream statistics the cost model prices (outliers, distinct symbols).

Pure Python cannot compress terabytes, so scales beyond what is feasible
are produced by :func:`scale_workload`: the measured per-partition
statistics pool is tiled deterministically across more ranks and the value
counts are scaled linearly (bit-rates, ratios and prediction errors — the
quantities every experiment depends on — are preserved exactly).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.compression.sz import SZCompressor, parse_stream_info
from repro.data.nyx import NyxGenerator
from repro.data.partition import grid_partition, partition_particles
from repro.data.vpic import VPICGenerator
from repro.errors import ConfigError
from repro.modeling.calibration import unique_symbols_estimate
from repro.modeling.ratio_model import RatioQualityModel
from repro.modeling.sampling import sample_partition_stats


@dataclass(frozen=True)
class FieldPartitionStats:
    """Measured statistics for one (field, rank) partition."""

    field: str
    rank: int
    n_values: int
    original_nbytes: int
    actual_nbytes: int
    predicted_nbytes: int
    n_outliers: int
    n_unique_symbols: int

    @property
    def actual_bit_rate(self) -> float:
        """Actual compressed bits per value."""
        return 8.0 * self.actual_nbytes / self.n_values

    @property
    def predicted_bit_rate(self) -> float:
        """Predicted compressed bits per value."""
        return 8.0 * self.predicted_nbytes / self.n_values

    @property
    def prediction_error(self) -> float:
        """Signed relative size-prediction error."""
        return (self.predicted_nbytes - self.actual_nbytes) / self.actual_nbytes


@dataclass(frozen=True)
class Workload:
    """One snapshot's partitioned compression statistics."""

    name: str
    nranks: int
    fields: tuple[str, ...]
    #: stats[field_index][rank] — field-major, canonical order.
    stats: tuple[tuple[FieldPartitionStats, ...], ...]

    @property
    def nfields(self) -> int:
        """Number of fields."""
        return len(self.fields)

    def matrix(self, attr: str) -> np.ndarray:
        """[nfields][nranks] array of one per-partition attribute."""
        return np.array(
            [[getattr(s, attr) for s in row] for row in self.stats], dtype=np.int64
        )

    @property
    def original_total(self) -> int:
        """Uncompressed snapshot bytes."""
        return int(self.matrix("original_nbytes").sum())

    @property
    def actual_total(self) -> int:
        """Ideal (no extra space) compressed bytes."""
        return int(self.matrix("actual_nbytes").sum())

    @property
    def overall_ratio(self) -> float:
        """Snapshot-level actual compression ratio."""
        return self.original_total / self.actual_total

    @property
    def overall_bit_rate(self) -> float:
        """Snapshot-level actual bits per value."""
        n = int(self.matrix("n_values").sum())
        return 8.0 * self.actual_total / n

    def per_partition_bit_rates(self) -> np.ndarray:
        """Flat array of actual bit-rates (the paper's Fig. 1 histogram)."""
        return np.array(
            [s.actual_bit_rate for row in self.stats for s in row], dtype=np.float64
        )


def _measure_partition(
    data: np.ndarray, field: str, rank: int, codec: SZCompressor
) -> FieldPartitionStats:
    """Compress one partition for real and predict its size."""
    stream = codec.compress(data)
    info = parse_stream_info(stream)
    sampled = sample_partition_stats(
        data,
        bound=codec.quantizer.requested_bound,
        mode=codec.quantizer.mode,
        radius=codec.radius,
    )
    pred = RatioQualityModel(codec).predict_from_stats(
        sampled, bytes_per_value=data.dtype.itemsize
    )
    return FieldPartitionStats(
        field=field,
        rank=rank,
        n_values=int(data.size),
        original_nbytes=int(data.nbytes),
        actual_nbytes=len(stream),
        predicted_nbytes=pred.predicted_nbytes,
        n_outliers=info.n_outliers,
        n_unique_symbols=sampled.n_unique_symbols,
    )


def build_workload(
    dataset: str = "nyx",
    nranks: int = 8,
    shape: tuple[int, int, int] = (64, 64, 64),
    n_particles: int = 1 << 20,
    bound_scale: float = 1.0,
    seed: int | None = None,
    include_particles: bool = False,
    growth: float = 1.0,
) -> Workload:
    """Generate, partition, and *really compress* a synthetic snapshot.

    ``bound_scale`` multiplies every field's error bound — the knob the
    ratio-sweep experiments (paper Figs. 17a/b) turn.
    """
    if bound_scale <= 0:
        raise ConfigError("bound_scale must be positive")
    if dataset == "nyx":
        gen = NyxGenerator(shape, seed=seed, include_particles=include_particles, growth=growth)
        parts = grid_partition(shape, nranks)
        mode = "abs"
    elif dataset == "vpic":
        gen = VPICGenerator(n_particles, seed=seed)
        parts = partition_particles(n_particles, nranks)
        mode = "rel"
    else:
        raise ConfigError(f"unknown dataset {dataset!r} (nyx or vpic)")
    rows = []
    for field in gen.field_names:
        global_field = gen.field(field)
        bound = gen.error_bound(field) * bound_scale
        codec = SZCompressor(bound=bound, mode=mode)
        row = tuple(
            _measure_partition(np.ascontiguousarray(p.extract(global_field)), field, p.rank, codec)
            for p in parts
        )
        rows.append(row)
    return Workload(
        name=f"{dataset}-{nranks}r", nranks=nranks, fields=tuple(gen.field_names), stats=tuple(rows)
    )


def workload_from_arrays(
    per_rank_fields: list[dict[str, np.ndarray]],
    codecs: dict,
    name: str = "arrays",
) -> Workload:
    """Build a workload from explicit per-rank field partitions.

    ``per_rank_fields[rank][field]`` is exactly what the real driver
    consumes, and the measurement runs the same codec and the same
    sampling-based ratio model the real predict phase runs — so a
    workload built here makes the simulator's predicted/actual byte
    matrices agree bit-for-bit with a real execution over the same data
    (the sim/real parity contract the strategy-engine tests check).
    """
    if not per_rank_fields:
        raise ConfigError("need at least one rank of fields")
    fields = list(per_rank_fields[0])
    for rank, local in enumerate(per_rank_fields):
        if list(local) != fields:
            raise ConfigError(f"rank {rank} field set differs from rank 0")
    rows = []
    for fname in fields:
        row = tuple(
            _measure_partition(np.ascontiguousarray(local[fname]), fname, rank, codecs[fname])
            for rank, local in enumerate(per_rank_fields)
        )
        rows.append(row)
    return Workload(
        name=f"{name}-{len(per_rank_fields)}r",
        nranks=len(per_rank_fields),
        fields=tuple(fields),
        stats=tuple(rows),
    )


def workload_from_matrices(
    name: str,
    fields: Sequence[str],
    n_values: np.ndarray,
    original_nbytes: np.ndarray,
    actual_nbytes: np.ndarray,
    predicted_nbytes: np.ndarray,
    n_outliers: np.ndarray | None = None,
    n_unique_symbols: np.ndarray | None = None,
) -> Workload:
    """Assemble a :class:`Workload` from explicit [nfields][nranks] matrices.

    The stats-only counterpart of :func:`workload_from_arrays`, for
    callers that already *know* (or synthesize) the per-partition sizes
    instead of measuring them by compressing real data: the scenario
    generator's named regimes, and the auto-tuner re-tuning from a
    time-step's measured actuals.  ``n_outliers`` defaults to zero and
    ``n_unique_symbols`` to the calibration heuristic at each partition's
    actual bit-rate.
    """
    nv = np.asarray(n_values, dtype=np.int64)
    orig = np.asarray(original_nbytes, dtype=np.int64)
    act = np.asarray(actual_nbytes, dtype=np.int64)
    pred = np.asarray(predicted_nbytes, dtype=np.int64)
    if not (nv.shape == orig.shape == act.shape == pred.shape) or nv.ndim != 2:
        raise ConfigError("matrices must share one [nfields][nranks] shape")
    if nv.shape[0] != len(fields):
        raise ConfigError(f"{len(fields)} field names for {nv.shape[0]} matrix rows")
    if np.any(nv < 1) or np.any(orig < 1) or np.any(act < 1) or np.any(pred < 1):
        raise ConfigError("all per-partition quantities must be >= 1")
    outliers = (
        np.zeros_like(nv) if n_outliers is None else np.asarray(n_outliers, dtype=np.int64)
    )
    if n_unique_symbols is None:
        unique = np.empty_like(nv)
        for f in range(nv.shape[0]):
            for r in range(nv.shape[1]):
                unique[f, r] = unique_symbols_estimate(
                    int(nv[f, r]), 8.0 * act[f, r] / nv[f, r]
                )
    else:
        unique = np.asarray(n_unique_symbols, dtype=np.int64)
    rows = []
    for f, fname in enumerate(fields):
        rows.append(
            tuple(
                FieldPartitionStats(
                    field=fname,
                    rank=r,
                    n_values=int(nv[f, r]),
                    original_nbytes=int(orig[f, r]),
                    actual_nbytes=int(act[f, r]),
                    predicted_nbytes=int(pred[f, r]),
                    n_outliers=int(outliers[f, r]),
                    n_unique_symbols=int(unique[f, r]),
                )
                for r in range(nv.shape[1])
            )
        )
    return Workload(
        name=name, nranks=nv.shape[1], fields=tuple(fields), stats=tuple(rows)
    )


def scale_workload(
    workload: Workload,
    nranks: int | None = None,
    values_per_partition: int | None = None,
    seed: int = 0,
) -> Workload:
    """Deterministically scale a measured workload to a larger configuration.

    * ``nranks`` — tile the measured per-rank statistics pool (cyclic with a
      seeded shuffle per field) across more ranks;
    * ``values_per_partition`` — scale each partition's value count; all
      byte quantities scale linearly so bit-rates are preserved.
    """
    if nranks is None:
        nranks = workload.nranks
    if nranks < 1:
        raise ConfigError("nranks must be positive")
    rng = np.random.default_rng(seed)
    rows = []
    for frow in workload.stats:
        pool = list(frow)
        order = rng.permutation(len(pool))
        new_row = []
        for rank in range(nranks):
            src = pool[order[rank % len(pool)]]
            s = replace(src, rank=rank)
            if values_per_partition is not None and values_per_partition != s.n_values:
                factor = values_per_partition / s.n_values
                s = replace(
                    s,
                    n_values=int(values_per_partition),
                    original_nbytes=int(round(s.original_nbytes * factor)),
                    actual_nbytes=max(1, int(round(s.actual_nbytes * factor))),
                    predicted_nbytes=max(1, int(round(s.predicted_nbytes * factor))),
                    n_outliers=int(round(s.n_outliers * factor)),
                )
            new_row.append(s)
        rows.append(tuple(new_row))
    return Workload(
        name=f"{workload.name}-scaled{nranks}",
        nranks=nranks,
        fields=workload.fields,
        stats=tuple(rows),
    )
