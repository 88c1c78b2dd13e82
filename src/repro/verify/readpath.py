"""Read-path parity: the fourth verification pillar.

The read-side scale-out machinery (decoded-partition LRU cache,
concurrent readers) must be *invisible* in the data: every route to the
same bytes has to produce the same bytes.  This pillar takes one
scenario's certification cell — a file the matrix already wrote through
the production facade — and fingerprints the same reads through each
route:

* ``cold``      — fresh open, empty cache: every partition decoded
  (the reference fingerprint).
* ``cached``    — the same handle reading again, served from the LRU.
* ``concurrent[N]`` — one shared read-mode handle hammered by N threads
  doing full and region reads simultaneously.
* ``regions``   — sub-region reads cold vs cached.

Any fingerprint diverging from ``cold`` fails verification.  Like the
other pillars this is scenario-driven: it runs for whatever scenarios the
CLI selects, not a hand-picked array.  It writes nothing of its own.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cache import get_cache

#: Reader threads for the concurrent route (the acceptance bar is >= 4).
CONCURRENT_READERS = 4


def _digest(arrays: "list[np.ndarray]") -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()[:16]


def _regions(shape: tuple[int, ...]) -> "list[tuple[slice, ...]]":
    """A deterministic set of sub-regions: corner, center, and a slab."""
    half = tuple(s // 2 for s in shape)
    quarter = tuple(max(1, s // 4) for s in shape)
    return [
        tuple(slice(0, h) for h in half),
        tuple(slice(q, q + h) for q, h in zip(quarter, half)),
        (slice(0, shape[0]),) + tuple(slice(0, s) for s in shape[1:]),
    ]


@dataclass(frozen=True)
class ReadParityCell:
    """One read route's fingerprint over every field of the scenario."""

    route: str
    fingerprint: str

    def to_json(self) -> dict:
        return {"route": self.route, "fingerprint": self.fingerprint}


@dataclass
class ReadParityResult:
    """All routes for one scenario; ``mismatches`` lists diverging routes."""

    scenario: str
    strategy: str
    reference: str
    cells: "list[ReadParityCell]" = field(default_factory=list)
    errors: "list[str]" = field(default_factory=list)

    @property
    def mismatches(self) -> "list[str]":
        return [c.route for c in self.cells if c.fingerprint != self.reference]

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.errors

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "reference": self.reference,
            "cells": [c.to_json() for c in self.cells],
            "mismatches": self.mismatches,
            "errors": self.errors,
            "passed": self.passed,
        }


def read_parity(
    scenario: str,
    path: str,
    strategy: str = "reorder",
    readers: int = CONCURRENT_READERS,
) -> ReadParityResult:
    """Fingerprint every read route of one scenario file (written with
    ``strategy``) against the cold read."""
    import repro

    cache = get_cache()
    cache.clear()
    with repro.open(path, "r") as f:
        names = sorted(f["fields"].keys())
        regions = _regions(f[f"fields/{names[0]}"].shape)
        cold = _digest([f[f"fields/{n}"][...] for n in names])
        result = ReadParityResult(scenario, strategy, cold)
        # Same handle again: now served from the decoded-partition LRU.
        result.cells.append(
            ReadParityCell("cached", _digest([f[f"fields/{n}"][...] for n in names]))
        )
        cold_regions = _digest(
            [f[f"fields/{n}"][r] for n in names for r in regions]
        )

    # Region reads, cold vs cached, must match the cold-region digest.
    cache.clear()
    with repro.open(path, "r") as f:
        first = _digest([f[f"fields/{n}"][r] for n in names for r in regions])
        again = _digest([f[f"fields/{n}"][r] for n in names for r in regions])
        if first != cold_regions:
            result.errors.append("region reads diverged across opens")
        if again != first:
            result.errors.append("cached region reads diverged from cold")

    # Concurrent readers on one shared handle: every thread's full
    # read must fingerprint identically to the cold read.
    cache.clear()
    prints: "dict[int, str]" = {}
    errors: "list[str]" = []
    start = threading.Barrier(readers)

    def reader(tid: int, handle) -> None:
        try:
            start.wait()
            key = regions[tid % len(regions)]
            full = [handle[f"fields/{n}"][...] for n in names]
            region = [handle[f"fields/{n}"][key] for n in names]
            expect = [arr[key] for arr in full]
            if any(not np.array_equal(a, b) for a, b in zip(region, expect)):
                errors.append(f"reader {tid}: region/full disagreement")
            prints[tid] = _digest(full)
        except BaseException as exc:  # noqa: BLE001 - surfaced in report
            errors.append(f"reader {tid}: {exc!r}")

    with repro.open(path, "r") as f:
        threads = [
            threading.Thread(target=reader, args=(t, f)) for t in range(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    result.errors.extend(errors)
    if len(prints) == readers and len(set(prints.values())) == 1:
        result.cells.append(
            ReadParityCell(f"concurrent[{readers}]", next(iter(prints.values())))
        )
    else:
        result.cells.append(ReadParityCell(f"concurrent[{readers}]", "divergent"))

    cache.clear()
    return result


def run_read_parity(
    paths: Mapping[str, str], strategy: str = "reorder"
) -> "dict[str, ReadParityResult]":
    """The pillar entry point: read parity for every scenario's file
    (``paths`` maps scenario names to files written with ``strategy``)."""
    return {sc: read_parity(sc, path, strategy=strategy) for sc, path in paths.items()}
