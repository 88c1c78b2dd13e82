"""Strategy parity (pillar 2 of the verify engine).

The canonical workload's certification cells, one file per strategy
written by the certification matrix, are read again: every file's byte
fingerprint (:func:`file_fingerprint`) is recorded — the anchor a
refactor's digest table compares against its parent — beside its
certification, so a strategy whose layout math regressed fails here even
if it is internally consistent.  The pillar writes nothing of its own.

Raw (non-compressing) strategies certify bitwise-exactly; compressing
strategies certify against their declared error bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import VerificationError
from repro.verify.certify import CertificationReport

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


def strategy_parity(
    cells: Mapping[str, CertificationReport],
    scenario: str = CANONICAL_SCENARIO,
    seed: int = 0,
) -> ParityResult | None:
    """Fingerprint the files of ``scenario``'s certification cells.

    ``cells`` is the certification matrix, keyed ``<scenario>/<strategy>``;
    each report's ``path`` is the cell's file, which must still exist.
    None when the matrix holds no cell of ``scenario``.
    """
    result = ParityResult(scenario=scenario, seed=seed)
    for key, report in cells.items():
        cell_scenario, _, strategy = key.partition("/")
        if cell_scenario == scenario:
            result.fingerprints[strategy] = file_fingerprint(report.path)
            result.certifications[strategy] = report
    return result if result.fingerprints else None
