"""Strategy parity (pillar 2 of the verify engine).

One canonical workload is written once through each of the four
strategies.  Every finished file's byte fingerprint
(:func:`file_fingerprint`) is recorded — the anchor a refactor's digest
table compares against its parent — and every file is round-trip
certified, so a strategy whose layout math regressed fails here even if
it is internally consistent.

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


@dataclass
class ParityResult:
    """Each strategy's fingerprint and certification on one workload."""

    scenario: str
    seed: int
    fingerprints: dict[str, str] = field(default_factory=dict)
    certifications: dict[str, CertificationReport] = field(default_factory=dict)

    @property
    def bound_violations(self) -> list[str]:
        """Strategies whose output failed certification."""
        return [s for s, rep in sorted(self.certifications.items()) if not rep.passed]

    @property
    def passed(self) -> bool:
        """True when every strategy's file certifies."""
        return not self.bound_violations

    def raise_on_failure(self) -> None:
        """Raise :class:`VerificationError` on any bound violation."""
        problems = [
            f"bound violation for {s!r}: {[c.field for c in self.certifications[s].violations]}"
            for s in self.bound_violations
        ]
        if problems:
            raise VerificationError(
                f"strategy parity failed on {self.scenario!r}: " + "; ".join(problems)
            )

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "bound_violations": self.bound_violations,
            "strategies": {
                s: {
                    "fingerprint": fingerprint,
                    "certification": self.certifications[s].to_json()
                    if s in self.certifications
                    else None,
                }
                for s, fingerprint in sorted(self.fingerprints.items())
            },
        }


def differential_parity(
    scenario: str = CANONICAL_SCENARIO,
    strategies: Sequence[str] | None = None,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> ParityResult:
    """Write one workload through each strategy; fingerprint and certify
    every file."""
    strategies = list(strategies) if strategies is not None else list(STRATEGIES)
    arrays = get_scenario(scenario).array_payload(seed=seed)
    reference = reference_fields(arrays)
    result = ParityResult(scenario=scenario, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-verify-parity-") as tmp:
        for strategy in strategies:
            path = os.path.join(tmp, f"{strategy}.phd5")
            write_scenario_file(arrays, strategy, path, config=config)
            result.fingerprints[strategy] = file_fingerprint(path)
            result.certifications[strategy] = certify(path, reference)
    return result
