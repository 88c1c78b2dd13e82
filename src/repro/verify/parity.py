"""Differential read/write parity (pillar 2 of the verify engine).

One canonical workload is pushed through each of the four strategies on
every requested executor backend.  Two properties are asserted:

* **cross-backend determinism** — the finished file's byte fingerprint
  (:func:`file_fingerprint`) must be identical across backends for each
  strategy: parallelizing a fan-out must never change what lands on disk;
* **bound-satisfying output** — the serial file of every strategy is
  round-trip certified, so a strategy whose layout math regressed fails
  here even if it is internally consistent across backends.

Raw (non-compressing) strategies certify bitwise-exactly; compressing
strategies certify against their declared error bound.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import PipelineConfig
from repro.core.scenarios import get_scenario
from repro.core.strategy import STRATEGIES
from repro.errors import VerificationError
from repro.exec import get_executor
from repro.verify.certify import CertificationReport, certify
from repro.verify.workloads import reference_fields, write_scenario_file

#: The canonical parity workload: the paper's target regime.
CANONICAL_SCENARIO = "balanced"


def digest(parts: "list[bytes | str]") -> str:
    """Short stable fingerprint of an ordered byte/str sequence."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") if isinstance(p, str) else p)
    return h.hexdigest()[:16]


def file_fingerprint(path: str) -> str:
    """Short digest of a finished file's bytes (the parity pillar's
    fingerprint)."""
    with open(path, "rb") as fh:
        return digest([hashlib.sha256(fh.read()).digest()])


@dataclass(frozen=True)
class ParityCell:
    """One (strategy, backend) write of the canonical workload."""

    strategy: str
    backend: str
    fingerprint: str

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ParityResult:
    """Outcome of the full strategy × backend differential matrix."""

    scenario: str
    seed: int
    cells: list[ParityCell] = field(default_factory=list)
    certifications: dict[str, CertificationReport] = field(default_factory=dict)

    def fingerprints(self, strategy: str) -> dict[str, str]:
        """backend → fingerprint for one strategy."""
        return {c.backend: c.fingerprint for c in self.cells if c.strategy == strategy}

    @property
    def mismatches(self) -> list[str]:
        """Strategies whose fingerprints differ across backends."""
        out = []
        for strategy in sorted({c.strategy for c in self.cells}):
            if len(set(self.fingerprints(strategy).values())) > 1:
                out.append(strategy)
        return out

    @property
    def bound_violations(self) -> list[str]:
        """Strategies whose serial output failed certification."""
        return [s for s, rep in sorted(self.certifications.items()) if not rep.passed]

    @property
    def passed(self) -> bool:
        """True when every backend agrees and every bound holds."""
        return not self.mismatches and not self.bound_violations

    def raise_on_failure(self) -> None:
        """Raise :class:`VerificationError` on any mismatch or violation."""
        problems = []
        for s in self.mismatches:
            problems.append(f"fingerprint mismatch for {s!r}: {self.fingerprints(s)}")
        for s in self.bound_violations:
            bad = self.certifications[s].violations
            problems.append(f"bound violation for {s!r}: {[c.field for c in bad]}")
        if problems:
            raise VerificationError(
                f"differential parity failed on {self.scenario!r}: "
                + "; ".join(problems)
            )

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "mismatches": self.mismatches,
            "bound_violations": self.bound_violations,
            "strategies": {
                s: {
                    "per_backend": self.fingerprints(s),
                    "identical": s not in self.mismatches,
                    "certification": self.certifications[s].to_json()
                    if s in self.certifications
                    else None,
                }
                for s in sorted({c.strategy for c in self.cells})
            },
        }


def differential_parity(
    scenario: str = CANONICAL_SCENARIO,
    strategies: Sequence[str] | None = None,
    backends: Sequence[str] = ("serial", "thread"),
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> ParityResult:
    """Run the strategy × backend differential matrix on one workload.

    The serial backend is always included (it anchors both the fingerprint
    comparison and the certified read-back).
    """
    strategies = list(strategies) if strategies is not None else list(STRATEGIES)
    backends = list(backends)
    if "serial" not in backends:
        backends.insert(0, "serial")
    arrays = get_scenario(scenario).array_payload(seed=seed)
    reference = reference_fields(arrays)
    result = ParityResult(scenario=scenario, seed=seed)
    executors = {name: get_executor(name) for name in backends}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-verify-parity-") as tmp:
            for strategy in strategies:
                for backend in backends:
                    path = os.path.join(tmp, f"{strategy}-{backend}.phd5")
                    write_scenario_file(
                        arrays, strategy, path,
                        config=config, executor=executors[backend],
                    )
                    result.cells.append(
                        ParityCell(strategy, backend, file_fingerprint(path))
                    )
                    if backend == "serial":
                        result.certifications[strategy] = certify(path, reference)
    finally:
        for ex in executors.values():
            ex.close()
    return result
