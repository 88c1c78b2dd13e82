"""``python -m repro.verify`` — the end-to-end verification suite.

Four pillars, one schema-versioned artifact:

1. **Round-trip certification** — every requested scenario × strategy is
   written through the production driver on the serial backend and read
   back; every field must satisfy the error bound its own file metadata
   declares (overflow-pressure scenarios run at the tightest extra-space
   ratio so the repair path carries real traffic).  The codec families
   (SZ, the lossless backends) get a direct compress→decompress sweep on
   top, and every scenario is additionally written through the
   :mod:`repro.api` facade (``<scenario>/facade[<strategy>]`` cells) so
   the h5py-style surface is held to the same bounds as the drivers.
2. **Differential parity** — the canonical workload through every
   strategy × executor backend; finished-file fingerprints must agree
   across backends and the serial output must certify.
3. **Scenario fuzzing** — seeded perturbations of the named regimes
   (fields/ranks/shape/dtype/bound/extra-space), each written and
   certified, failures shrunk to minimal repro configs.
4. **Read-route parity** — every scenario file read through every
   read-side route (cached, executor-parallel decode, >=4 concurrent
   readers, sub-regions) fingerprinted against the cold serial read;
   any divergence fails the run (see :mod:`repro.verify.readpath`).
5. **Served-write parity** — three scenario regimes written by 4
   concurrent clients through an in-process ``repro.serve`` daemon must
   be byte-identical to the direct facade file and independently
   certify (see :mod:`repro.verify.served`).

Usage::

    python -m repro.verify --quick               # CI smoke (seconds)
    python -m repro.verify                       # full sweep
    python -m repro.verify --quick \\
        --scenarios balanced --strategies reorder --fuzz-cases 2

Exit status is non-zero on any bound violation, fingerprint mismatch,
codec round-trip failure, or fuzz failure — the CI ``verify-smoke`` job
gates on it.
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.bench.harness import format_table, results_dir
from repro.core.scenarios import get_scenario, scenario_names
from repro.core.strategy import STRATEGIES
from repro.exec import EXECUTOR_NAMES
from repro.verify.certify import CertificationReport, certify, certify_codecs
from repro.verify.fuzz import fuzz
from repro.verify.parity import CANONICAL_SCENARIO, differential_parity
from repro.verify.readpath import run_read_parity
from repro.verify.report import build_report, save_report
from repro.verify.served import SERVE_SCENARIOS, run_serve_parity
from repro.verify.workloads import (
    reference_fields,
    scenario_config as _scenario_config,
    write_scenario_file,
    write_scenario_file_facade,
)


def run_certification(
    scenarios: "list[str]",
    strategies: "list[str]",
    seed: int,
) -> dict[str, CertificationReport]:
    """The scenario × strategy certification matrix on the serial backend."""
    out: dict[str, CertificationReport] = {}
    for scenario in scenarios:
        arrays = get_scenario(scenario).array_payload(seed=seed)
        reference = reference_fields(arrays)
        config = _scenario_config(scenario)
        for strategy in strategies:
            with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
                path = os.path.join(tmp, "cert.phd5")
                write_scenario_file(arrays, strategy, path, config=config)
                out[f"{scenario}/{strategy}"] = certify(path, reference)
    return out


def run_facade_certification(
    scenarios: "list[str]",
    strategies: "list[str]",
    seed: int,
) -> dict[str, CertificationReport]:
    """Certify facade-written files: every scenario through ``repro.open``.

    The same payloads land via plain ``ds[region] = block`` assignments
    instead of driver wiring (one representative strategy per scenario, so
    the pillar stays smoke-sized), and must satisfy the same declared
    bounds — proving the facade added routing, not a second write path.
    """
    out: dict[str, CertificationReport] = {}
    strategy = "reorder" if "reorder" in strategies else strategies[0]
    for scenario in scenarios:
        arrays = get_scenario(scenario).array_payload(seed=seed)
        reference = reference_fields(arrays)
        config = _scenario_config(scenario)
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = os.path.join(tmp, "cert.phd5")
            write_scenario_file_facade(arrays, strategy, path, config=config)
            out[f"{scenario}/facade[{strategy}]"] = certify(path, reference)
    return out


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="End-to-end verification: certification / parity / fuzzing.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--scenarios", default=",".join(scenario_names()),
                        help="comma-separated scenario names (default: all)")
    parser.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated strategy names (default: all)")
    parser.add_argument("--backends", default=",".join(EXECUTOR_NAMES),
                        help="comma-separated executor backends for the parity "
                             "pillar (default: all)")
    parser.add_argument("--fuzz-cases", type=int, default=None,
                        help="generated scenario-fuzz cases (default: 4 quick, "
                             "12 full; 0 disables)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for payload generation and fuzzing")
    parser.add_argument("--skip-parity", action="store_true",
                        help="skip the strategy x backend parity pillar")
    parser.add_argument("--skip-read-parity", action="store_true",
                        help="skip the read-route parity pillar (cached / "
                             "parallel / concurrent reads vs cold serial)")
    parser.add_argument("--skip-serve", action="store_true",
                        help="skip the served-write parity pillar (concurrent "
                             "daemon clients vs the direct facade)")
    parser.add_argument("--skip-facade", action="store_true",
                        help="skip the repro.open facade certification cells")
    parser.add_argument("--skip-codecs", action="store_true",
                        help="skip the registered-codec round-trip sweep")
    parser.add_argument("--out", default=None,
                        help="output directory for VERIFY_<sha>.json "
                             "(default: results/)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    n_fuzz = args.fuzz_cases if args.fuzz_cases is not None else (4 if args.quick else 12)

    certifications = run_certification(scenarios, strategies, args.seed)
    if not args.skip_facade:
        certifications.update(
            run_facade_certification(scenarios, strategies, args.seed)
        )
    parity = (
        None
        if args.skip_parity
        else differential_parity(
            CANONICAL_SCENARIO, strategies=strategies,
            backends=backends, seed=args.seed,
        )
    )
    codecs = None if args.skip_codecs else certify_codecs(seed=args.seed)
    fuzz_report = (
        fuzz(n_fuzz, seed=args.seed, strategies=strategies, bases=scenarios)
        if n_fuzz > 0
        else None
    )
    strategy = "reorder" if "reorder" in strategies else strategies[0]
    read_parity = (
        None
        if args.skip_read_parity
        else run_read_parity(scenarios, strategy=strategy, seed=args.seed)
    )
    serve_scenarios = [s for s in SERVE_SCENARIOS if s in scenarios]
    serve_parity = (
        None
        if args.skip_serve or not serve_scenarios
        else run_serve_parity(serve_scenarios, strategy=strategy, seed=args.seed)
    )

    report = build_report(
        certifications, parity, codecs, fuzz_report,
        quick=args.quick, seed=args.seed, read_parity=read_parity,
        serve_parity=serve_parity,
    )
    out_dir = args.out or results_dir()
    path = save_report(report, out_dir)

    rows = [
        {
            "cell": key,
            "fields": len(rep.certificates),
            "max_error": max((c.max_error for c in rep.certificates), default=0.0),
            "overflow_B": rep.total_overflow_nbytes,
            "passed": rep.passed,
        }
        for key, rep in sorted(certifications.items())
    ]
    print(format_table(
        f"repro.verify ({'quick' if args.quick else 'full'})", rows
    ))
    if parity is not None:
        state = "identical" if not parity.mismatches else f"MISMATCH {parity.mismatches}"
        print(f"parity [{parity.scenario}] across {backends}: {state}")
    if codecs is not None:
        bad = [c for c in codecs if not c.passed]
        print(f"codec round-trips: {len(codecs) - len(bad)}/{len(codecs)} passed")
    if read_parity is not None:
        bad = [k for k, rp in read_parity.items() if not rp.passed]
        routes = sorted({c.route for rp in read_parity.values() for c in rp.cells})
        state = "identical" if not bad else f"DIVERGENT {bad}"
        print(f"read parity ({', '.join(routes)}) x {len(read_parity)} scenarios: {state}")
    if serve_parity is not None:
        bad = [k for k, sp in serve_parity.items() if not sp.passed]
        state = "byte-identical + certified" if not bad else f"FAILED {bad}"
        print(
            f"serve parity ({len(serve_parity)} scenarios x "
            f"{next(iter(serve_parity.values())).n_clients} clients): {state}"
        )
    if fuzz_report is not None:
        print(
            f"fuzz: {len(fuzz_report.cases)} cases, "
            f"{len(fuzz_report.failures)} failures"
        )
    print(f"\nwrote {path}")
    if not report["passed"]:
        print(f"\nVERIFICATION FAILED ({len(report['failures'])} problems):")
        for line in report["failures"]:
            print(" ", line)
        return 1
    print("verification passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
