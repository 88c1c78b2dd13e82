"""Fifth verification pillar: served writes vs the direct driver path.

The verify-before-wire convention applies to the ingest daemon like any
other subsystem: before anyone trusts ``repro serve`` with real traffic,
this pillar proves that a file written by **N concurrent clients through
the daemon** is *byte-identical* to one written by the same payload
through the local facade — same groups, same partitioning, same
strategy, same config — and that the served file independently certifies
against the scenario's declared error bounds.  The direct file is the
scenario's certification cell, which the matrix already wrote; only the
served file is written here.

Byte identity is a strong claim and it holds by construction: the daemon
stages client blocks into an ordinary facade file and commits through
the facade's own coalescing flush, whose batching and region-sorted rank
layout are deterministic regardless of block *arrival* order.  The
concurrent clients here race each other on purpose; the digest must not
care.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.scenarios import get_scenario
from repro.errors import ReproError
from repro.serve.daemon import ReproServer
from repro.serve.client import open_remote
from repro.verify.certify import CertificationReport, certify
from repro.verify.workloads import reference_fields, scenario_config

#: Scenario regimes the serve pillar certifies (≥3, spanning the paper's
#: target regime, heavy overflow traffic, and incompressible payloads).
SERVE_SCENARIOS = ("balanced", "overflow-stress", "incompressible")


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


@dataclass
class ServeParityResult:
    """One scenario's served-vs-direct comparison."""

    scenario: str
    strategy: str
    n_clients: int
    served_digest: str = ""
    direct_digest: str = ""
    certification: "CertificationReport | None" = None
    errors: "list[str]" = field(default_factory=list)

    @property
    def byte_identical(self) -> bool:
        return bool(self.served_digest) and self.served_digest == self.direct_digest

    @property
    def passed(self) -> bool:
        return (
            not self.errors
            and self.byte_identical
            and self.certification is not None
            and self.certification.passed
        )

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "n_clients": self.n_clients,
            "served_digest": self.served_digest,
            "direct_digest": self.direct_digest,
            "byte_identical": self.byte_identical,
            "certification": (
                self.certification.to_json()
                if self.certification is not None
                else None
            ),
            "errors": list(self.errors),
            "passed": self.passed,
        }


def write_scenario_file_served(
    arrays,
    strategy: str,
    path: str,
    address: str,
    config=None,
    n_clients: int = 4,
) -> None:
    """Write one scenario payload through a running daemon.

    The served twin of
    :func:`~repro.verify.workloads.write_scenario_file`: a control
    client creates the datasets (same ``fields/`` group, same creation
    order), then ``n_clients`` concurrent connections race the per-rank
    payload blocks in, interleaved round-robin, and the control client
    commits one coalescing flush and closes.
    """
    control = open_remote(
        address, path, "w",
        config=config, strategy=strategy, tenant="control",
    )
    try:
        for name, arr in arrays.fields.items():
            control.create_dataset(
                f"fields/{name}", arrays.shape, arr.dtype,
                error_bound=arrays.scenario.array_bound,
            )
        failures: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                f = open_remote(address, path, "w", tenant=f"writer{worker}")
                try:
                    for local, region in arrays.payload[worker::n_clients]:
                        key = tuple(slice(a, b) for a, b in region)
                        for name, block in local.items():
                            f[f"fields/{name}"][key] = block
                finally:
                    f.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,), daemon=True)
            for w in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        if failures:
            raise failures[0]
        control.flush()
    finally:
        control.close()


def run_serve_parity(
    direct: Mapping[str, str],
    strategy: str = "reorder",
    seed: int = 0,
    n_clients: int = 4,
) -> dict[str, ServeParityResult]:
    """The served-write parity matrix: one in-process daemon, every
    scenario of ``direct`` (scenario name to its facade-written file, with
    ``strategy`` and the scenario's config) written again through it,
    digests and certification compared."""
    out: dict[str, ServeParityResult] = {}
    server = ReproServer(port=0).start()
    try:
        for scenario, direct_path in direct.items():
            result = ServeParityResult(
                scenario=scenario, strategy=strategy, n_clients=n_clients
            )
            out[f"{scenario}/served[{strategy}]"] = result
            arrays = get_scenario(scenario).array_payload(seed=seed)
            with tempfile.TemporaryDirectory(prefix="repro-serve-verify-") as tmp:
                served_path = os.path.join(tmp, "served.phd5")
                try:
                    write_scenario_file_served(
                        arrays, strategy, served_path, server.address,
                        config=scenario_config(scenario), n_clients=n_clients,
                    )
                    result.direct_digest = _file_digest(direct_path)
                    result.served_digest = _file_digest(served_path)
                    result.certification = certify(
                        served_path, reference_fields(arrays)
                    )
                except ReproError as exc:
                    result.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                if not result.byte_identical:
                    result.errors.append(
                        f"served file digest {result.served_digest} != "
                        f"direct facade digest {result.direct_digest}"
                    )
    finally:
        server.stop()
    return out
