"""Offline calibration workflows (paper Section IV-B).

The paper calibrates per machine, once, from a *sample dataset*:

* **compression throughput** — compress one field (baryon density of the
  512³ Nyx dataset) at relative error bounds spanning [1e-1, 1e-8], record
  (bit-rate, throughput) pairs, then fit Eq. (1)'s (Cmin, Cmax, a);
* **write throughput** — write 5/10/20/50/100 MB per process from 128
  processes to the shared file, take the average throughput as Eq. (2)'s
  ``Cthr``.

Measurement here runs the *real* compressor to obtain bit-rates and stream
statistics, and prices the time either with the machine's ground-truth cost
model (deterministic; the default for experiments) or with actual wall
clock (``timing="wallclock"``, machine-dependent but honest).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.compression.sz import SZCompressor, parse_stream_info
from repro.errors import CalibrationError
from repro.modeling.throughput_model import PowerLawThroughputModel
from repro.modeling.write_model import StableWriteModel
from repro.sim.engine import Environment
from repro.sim.machine import MachineProfile

#: The paper's calibration error-bound sweep (relative bounds).
DEFAULT_CALIBRATION_BOUNDS = tuple(10.0 ** (-k) for k in range(1, 9))

#: The paper's offline write sizes (bytes per process).
DEFAULT_WRITE_SIZES = (5 * 2**20, 10 * 2**20, 20 * 2**20, 50 * 2**20, 100 * 2**20)


def measure_compression_points(
    data: np.ndarray,
    machine: MachineProfile,
    bounds: Sequence[float] = DEFAULT_CALIBRATION_BOUNDS,
    mode: str = "rel",
    timing: str = "costmodel",
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compress ``data`` at each bound; return (bit_rates, throughputs MB/s).

    ``timing="costmodel"`` prices each compression with the machine's
    ground-truth stage model (using the *real* measured stream statistics);
    ``timing="wallclock"`` uses actual elapsed time.
    """
    if timing not in ("costmodel", "wallclock"):
        raise CalibrationError(f"unknown timing source {timing!r}")
    bit_rates = []
    throughputs = []
    for bound in bounds:
        codec = SZCompressor(bound=bound, mode=mode)
        if timing == "wallclock":
            t0 = time.perf_counter()
            stream = codec.compress(data)
            seconds = time.perf_counter() - t0
            info = parse_stream_info(stream)
        else:
            stream = codec.compress(data)
            info = parse_stream_info(stream)
            seconds = machine.cost_model.compression_seconds(
                n_values=data.size,
                bit_rate=info.bit_rate,
                n_outliers=info.n_outliers,
                n_unique_symbols=unique_symbols_estimate(info.n_values, info.bit_rate),
                rng=rng,
            )
        bit_rates.append(info.bit_rate)
        throughputs.append(data.nbytes / seconds / 1e6)
    return np.asarray(bit_rates), np.asarray(throughputs)


def unique_symbols_estimate(n_values: int, bit_rate: float) -> int:
    """Rough distinct-symbol count from the stream bit-rate.

    A centred quantization-code distribution with entropy ≈ bit-rate has on
    the order of ``2**bit_rate`` heavily used symbols plus a tail; capped by
    the alphabet and the partition size.
    """
    est = int(8 * 2 ** min(bit_rate, 16.0))
    return max(2, min(est, n_values, 65537))


def calibrate_throughput_model(
    data: np.ndarray,
    machine: MachineProfile,
    bounds: Sequence[float] = DEFAULT_CALIBRATION_BOUNDS,
    mode: str = "rel",
    timing: str = "costmodel",
    rng: int | np.random.Generator | None = None,
) -> PowerLawThroughputModel:
    """End-to-end offline fit of Eq. (1) on one sample field."""
    b, t = measure_compression_points(data, machine, bounds, mode, timing, rng)
    return PowerLawThroughputModel.fit(b, t)


def calibrate_write_throughput(
    machine: MachineProfile,
    nprocs: int = 128,
    sizes: Sequence[int] = DEFAULT_WRITE_SIZES,
) -> StableWriteModel:
    """Measure ``Cthr`` by simulated concurrent writes (paper's procedure).

    For each size, ``nprocs`` ranks write simultaneously to the shared file
    system; the per-process average throughput over all sizes becomes the
    stable write throughput of Eq. (2).
    """
    if nprocs <= 0:
        raise CalibrationError("nprocs must be positive")
    throughputs = []
    for size in sizes:
        if size <= 0:
            raise CalibrationError("sizes must be positive")
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
        throughputs.extend(size / dt for dt in finish.values())
    return StableWriteModel(cthr_bytes_per_s=float(np.mean(throughputs)))
