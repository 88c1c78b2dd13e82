"""Property-based scenario fuzzing (pillar 3 of the verify engine).

Hand-picked test cases cover the regimes someone thought of; the fuzzer
covers the ones nobody did.  It perturbs the nine named regimes of
:mod:`repro.core.scenarios` along the axes that historically break
write/read pipelines — field count, rank count, dtype, error bound, and
overflow pressure (extra-space ratio) — writes each generated case
through one of the four strategies on the production driver, and round-trip
certifies the result.

Everything is seeded and wall-clock free: the same ``(seed, index)`` pair
always draws the same :class:`FuzzCase`, so a CI failure reproduces
locally from the case label alone.  Failing cases are *shrunk* — field
count, rank count, shape, dtype and extra space are greedily reduced
while the failure persists — so the report carries a minimal repro
config, not a needle in a random haystack.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.config import (
    EXTRA_SPACE_DEFAULT,
    EXTRA_SPACE_MAX,
    EXTRA_SPACE_MIN,
    PipelineConfig,
)
from repro.core.scenarios import get_scenario, scenario_names
from repro.core.strategy import STRATEGIES
from repro.verify.certify import certify
from repro.verify.workloads import reference_fields, write_scenario_file

#: Domain separator for the fuzzer's RNG streams.
_RNG_TAG = zlib.crc32(b"repro-verify-fuzz")

#: Shape-axis bounds for generated arrays (small enough for pure Python,
#: large enough to produce multi-block streams and remainders).
_MIN_EDGE, _MAX_EDGE = 4, 16

#: Cap on greedy shrink iterations (each one writes + certifies a file).
MAX_SHRINK_STEPS = 48


@dataclass(frozen=True)
class FuzzCase:
    """One generated verification case (a perturbed named regime)."""

    index: int
    seed: int
    base: str
    strategy: str
    nfields: int
    nranks: int
    shape: tuple[int, int, int]
    bound: float
    dtype: str  # "float32" | "float64"
    extra_space: float

    @property
    def label(self) -> str:
        """Stable human-readable id, e.g. ``#3 overflow-stress/reorder``."""
        return (
            f"#{self.index} {self.base}/{self.strategy} "
            f"f{self.nfields} r{self.nranks} {self.shape} "
            f"eb={self.bound:.2e} {self.dtype} rspace={self.extra_space:.3f}"
        )

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "base": self.base,
            "strategy": self.strategy,
            "nfields": self.nfields,
            "nranks": self.nranks,
            "shape": list(self.shape),
            "bound": self.bound,
            "dtype": self.dtype,
            "extra_space": self.extra_space,
        }


@dataclass(frozen=True)
class FuzzFailure:
    """A failing case plus its shrunk minimal repro."""

    case: FuzzCase
    minimal: FuzzCase
    error: str

    def to_json(self) -> dict:
        return {
            "case": self.case.to_json(),
            "minimal": self.minimal.to_json(),
            "error": self.error,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    seed: int
    cases: list[FuzzCase] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no generated case failed certification."""
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "n_cases": len(self.cases),
            "passed": self.passed,
            "cases": [c.label for c in self.cases],
            "failures": [f.to_json() for f in self.failures],
        }


def _case_rng(seed: int, index: int) -> np.random.Generator:
    """Seeded per-case generator (stable across processes)."""
    return np.random.default_rng([_RNG_TAG, seed, index])


def draw_case(
    seed: int,
    index: int,
    strategies: Sequence[str] | None = None,
    bases: Sequence[str] | None = None,
) -> FuzzCase:
    """Deterministically draw the ``index``-th case of a fuzz run."""
    rng = _case_rng(seed, index)
    bases = list(bases) if bases is not None else scenario_names()
    strategies = list(strategies) if strategies is not None else list(STRATEGIES)
    base = bases[int(rng.integers(len(bases)))]
    strategy = strategies[int(rng.integers(len(strategies)))]
    nranks = int(rng.integers(1, 5))
    # slab_partition needs axis 0 >= nranks; grid blocks then always fit.
    shape = (
        int(rng.integers(max(_MIN_EDGE, nranks), _MAX_EDGE + 1)),
        int(rng.integers(_MIN_EDGE, _MAX_EDGE + 1)),
        int(rng.integers(_MIN_EDGE, _MAX_EDGE + 1)),
    )
    sc = get_scenario(base)
    # Tight extra space under overflow pressure, anywhere in-domain otherwise.
    if sc.overflow_pressure or rng.random() < 0.25:
        extra_space = EXTRA_SPACE_MIN
    else:
        extra_space = float(
            np.round(rng.uniform(EXTRA_SPACE_MIN, EXTRA_SPACE_MAX), 4)
        )
    return FuzzCase(
        index=index,
        seed=seed,
        base=base,
        strategy=strategy,
        nfields=int(rng.integers(1, 5)),
        nranks=nranks,
        shape=shape,
        bound=float(10.0 ** rng.uniform(-5.0, -1.3)),
        dtype="float64" if rng.random() < 0.3 else "float32",
        extra_space=extra_space,
    )


def run_case(case: FuzzCase) -> str | None:
    """Write and certify one case; returns a failure message or None.

    Certification failures *and* hard errors (anything the write or read
    path raises) both count as failures — the fuzzer's contract is that
    every generated configuration round-trips within bounds.
    """
    sc = get_scenario(case.base).scaled(
        nfields=case.nfields,
        array_shape=case.shape,
        array_nranks=case.nranks,
        array_bound=case.bound,
    )
    config = PipelineConfig(extra_space_ratio=case.extra_space)
    dtype = np.dtype(case.dtype)
    try:
        arrays = sc.array_payload(seed=case.seed)
        with tempfile.TemporaryDirectory(prefix="repro-verify-fuzz-") as tmp:
            path = os.path.join(tmp, "case.phd5")
            write_scenario_file(arrays, case.strategy, path, config=config, dtype=dtype)
            report = certify(path, reference_fields(arrays, dtype=dtype))
        if not report.passed:
            bad = report.violations
            return (
                f"certification failed for {[c.field for c in bad]}: "
                + "; ".join(
                    f"{c.field} max_error={c.max_error:.3e} bound={c.bound:.3e}"
                    + (f" ({c.error})" if c.error else "")
                    for c in bad
                )
            )
        return None
    except Exception as exc:  # noqa: BLE001 - a fuzz failure, not a crash
        return f"{type(exc).__name__}: {exc}"


def shrink_case(
    case: FuzzCase, failing: Callable[[FuzzCase], "str | None"]
) -> FuzzCase:
    """Greedily reduce a failing case while the failure persists.

    Each pass proposes a strictly simpler variant (fewer fields, fewer
    ranks, smaller shape, float32, default-bound extra space); a variant
    is kept only if ``failing`` still reports an error.  Deterministic and
    bounded by :data:`MAX_SHRINK_STEPS` certification runs.
    """
    steps = 0

    def still_fails(candidate: FuzzCase) -> bool:
        nonlocal steps
        if steps >= MAX_SHRINK_STEPS:
            return False
        steps += 1
        return failing(candidate) is not None

    current = case
    progress = True
    while progress and steps < MAX_SHRINK_STEPS:
        progress = False
        candidates = []
        if current.nfields > 1:
            candidates.append(replace(current, nfields=max(1, current.nfields // 2)))
            candidates.append(replace(current, nfields=current.nfields - 1))
        if current.nranks > 1:
            candidates.append(replace(current, nranks=max(1, current.nranks // 2)))
            candidates.append(replace(current, nranks=current.nranks - 1))
        smaller = tuple(
            max(max(_MIN_EDGE, current.nranks), s // 2) for s in current.shape
        )
        if smaller != current.shape:
            candidates.append(replace(current, shape=smaller))
        if current.dtype != "float32":
            candidates.append(replace(current, dtype="float32"))
        if current.extra_space != EXTRA_SPACE_DEFAULT:
            candidates.append(replace(current, extra_space=EXTRA_SPACE_DEFAULT))
        for candidate in candidates:
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


def fuzz(
    n_cases: int,
    seed: int = 0,
    strategies: Sequence[str] | None = None,
    bases: Sequence[str] | None = None,
    shrink: bool = True,
) -> FuzzReport:
    """Generate, run, and (on failure) shrink ``n_cases`` scenarios."""
    report = FuzzReport(seed=seed)
    for index in range(n_cases):
        case = draw_case(seed, index, strategies=strategies, bases=bases)
        report.cases.append(case)
        error = run_case(case)
        if error is not None:
            minimal = shrink_case(case, run_case) if shrink else case
            final_error = run_case(minimal) if minimal != case else error
            report.failures.append(
                FuzzFailure(case=case, minimal=minimal, error=final_error or error)
            )
    return report
