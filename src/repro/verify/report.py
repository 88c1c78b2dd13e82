"""The schema-versioned verification artifact (``VERIFY_<sha>.json``).

One JSON file per run, a ``schema`` field bumped on shape changes, the git
sha and host recorded, and a top-level ``passed`` flag plus flat
``failures`` list so CI can gate without parsing the pillar-specific
sections.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Mapping

from repro.verify.certify import CertificationReport, CodecCertificate
from repro.verify.fuzz import FuzzReport
from repro.verify.parity import ParityResult
from repro.verify.readpath import ReadParityResult
from repro.verify.served import ServeParityResult

#: Verify artifact schema (bump on any shape change).
#: v2: added the ``read_parity`` pillar (cached / parallel / concurrent
#: read routes fingerprinted against cold serial).
#: v3: added the ``serve_parity`` pillar (N concurrent clients through the
#: ingest daemon vs the direct facade: byte-identical + certified).
SCHEMA = "repro-verify/3"


def git_sha() -> str:
    """Short HEAD sha of the checkout this package lives in, for artifact
    naming (``"unknown"`` outside a checkout or without ``git``)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_report(
    certifications: Mapping[str, CertificationReport],
    parity: ParityResult | None,
    codecs: "list[CodecCertificate] | None",
    fuzz: FuzzReport | None,
    quick: bool,
    seed: int,
    read_parity: "Mapping[str, ReadParityResult] | None" = None,
    serve_parity: "Mapping[str, ServeParityResult] | None" = None,
) -> dict:
    """Assemble the schema-versioned artifact from the pillar results.

    ``certifications`` is keyed ``<scenario>/<strategy>``.  Any pillar may
    be None (skipped); the ``passed`` flag covers only what ran.
    """
    failures: list[str] = []
    cert_json: dict[str, dict] = {}
    for key, report in sorted(certifications.items()):
        cert_json[key] = report.to_json()
        for c in report.violations:
            failures.append(
                f"certification {key}: {c.field} max_error={c.max_error:.3e} "
                f"bound={c.bound:.3e}" + (f" ({c.error})" if c.error else "")
            )
    if parity is not None:
        for s in parity.mismatches:
            failures.append(
                f"parity: fingerprint mismatch for {s!r}: {parity.fingerprints(s)}"
            )
        for s in parity.bound_violations:
            failures.append(f"parity: bound violation for strategy {s!r}")
    if codecs is not None:
        for c in codecs:
            if not c.passed:
                failures.append(
                    f"codec {c.codec} [{c.params}]: "
                    + (c.error or f"max_error={c.max_error:.3e}")
                )
    if fuzz is not None:
        for f in fuzz.failures:
            failures.append(f"fuzz {f.minimal.label}: {f.error}")
    if read_parity is not None:
        for key, rp in sorted(read_parity.items()):
            for route in rp.mismatches:
                failures.append(
                    f"read parity {key}: route {route!r} diverged from cold serial"
                )
            for err in rp.errors:
                failures.append(f"read parity {key}: {err}")
    if serve_parity is not None:
        for key, sp in sorted(serve_parity.items()):
            for err in sp.errors:
                failures.append(f"serve parity {key}: {err}")
            if sp.certification is not None and not sp.certification.passed:
                failures.append(
                    f"serve parity {key}: served file failed certification"
                )
    return {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "seed": seed,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "certification": cert_json,
        "parity": parity.to_json() if parity is not None else None,
        "read_parity": (
            {k: v.to_json() for k, v in sorted(read_parity.items())}
            if read_parity is not None
            else None
        ),
        "serve_parity": (
            {k: v.to_json() for k, v in sorted(serve_parity.items())}
            if serve_parity is not None
            else None
        ),
        "codecs": [c.to_json() for c in codecs] if codecs is not None else None,
        "fuzz": fuzz.to_json() if fuzz is not None else None,
        "passed": not failures,
        "failures": failures,
    }


def save_report(report: dict, out_dir: str) -> str:
    """Write the artifact as ``VERIFY_<sha>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"VERIFY_{report['git_sha']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return path
