"""``python -m repro.verify`` — the end-to-end verification suite.

Five pillars, one schema-versioned artifact.  Every ``(scenario,
strategy)`` file is written once, through the :mod:`repro.api` facade
(the production write), and the parity pillars read it:

1. **Round-trip certification** — every requested scenario × strategy is
   written through the facade and read back; every field must satisfy
   the error bound its own file metadata declares (overflow-pressure
   scenarios run at the tightest extra-space ratio so the repair path
   carries real traffic).  The codec families (SZ, the lossless
   backends) get a direct compress→decompress sweep on top.
2. **Strategy parity** — the canonical scenario's cells, one per
   strategy: every file is fingerprinted (the anchor of a refactor's
   digest table) beside its certification.
3. **Scenario fuzzing** — seeded perturbations of the named regimes
   (fields/ranks/shape/dtype/bound/extra-space), each written and
   certified, failures shrunk to minimal repro configs.
4. **Read-route parity** — every scenario's cell of the read strategy
   read through every read-side route (cached, >=4 concurrent readers,
   sub-regions) and fingerprinted against the cold read; any divergence
   fails the run (see :mod:`repro.verify.readpath`).
5. **Served-write parity** — three scenario regimes written by 4
   concurrent clients through an in-process ``repro.serve`` daemon must
   be byte-identical to the same scenario's cell and independently
   certify (see :mod:`repro.verify.served`).

Usage::

    python -m repro.verify --quick               # CI smoke (seconds)
    python -m repro.verify                       # full sweep
    python -m repro.verify --quick \\
        --scenarios balanced --strategies reorder --fuzz-cases 2

Exit status is non-zero on any bound violation, read or served
fingerprint mismatch, codec round-trip failure, or fuzz failure — the CI
``verify-smoke`` job gates on it.
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.bench.harness import format_table, results_dir
from repro.core.scenarios import get_scenario, scenario_names
from repro.core.strategy import STRATEGIES
from repro.verify.certify import CertificationReport, certify, certify_codecs
from repro.verify.fuzz import fuzz
from repro.verify.parity import CANONICAL_SCENARIO, strategy_parity
from repro.verify.readpath import run_read_parity
from repro.verify.report import build_report, save_report
from repro.verify.served import SERVE_SCENARIOS, run_serve_parity
from repro.verify.workloads import reference_fields, scenario_config, write_scenario_file


def run_certification(
    scenarios: "list[str]",
    strategies: "list[str]",
    seed: int,
    directory: str,
) -> dict[str, CertificationReport]:
    """The scenario × strategy certification matrix.

    Each cell's file is written once into ``directory`` and stays there
    (its report's ``path``) for the parity pillars to read.
    """
    out: dict[str, CertificationReport] = {}
    for scenario in scenarios:
        arrays = get_scenario(scenario).array_payload(seed=seed)
        reference = reference_fields(arrays)
        config = scenario_config(scenario)
        for strategy in strategies:
            path = os.path.join(directory, f"{scenario}-{strategy}.phd5")
            write_scenario_file(arrays, strategy, path, config=config)
            out[f"{scenario}/{strategy}"] = certify(path, reference)
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
    parser.add_argument("--fuzz-cases", type=int, default=None,
                        help="generated scenario-fuzz cases (default: 4 quick, "
                             "12 full; 0 disables)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for payload generation and fuzzing")
    parser.add_argument("--skip-read-parity", action="store_true",
                        help="skip the read-route parity pillar (cached / "
                             "concurrent / region reads vs cold)")
    parser.add_argument("--skip-serve", action="store_true",
                        help="skip the served-write parity pillar (concurrent "
                             "daemon clients vs the direct facade file)")
    parser.add_argument("--skip-codecs", action="store_true",
                        help="skip the codec round-trip sweep")
    parser.add_argument("--out", default=None,
                        help="output directory for VERIFY_<sha>.json "
                             "(default: results/)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    n_fuzz = args.fuzz_cases if args.fuzz_cases is not None else (4 if args.quick else 12)

    strategy = "reorder" if "reorder" in strategies else strategies[0]
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        certifications = run_certification(scenarios, strategies, args.seed, tmp)
        parity = strategy_parity(certifications, CANONICAL_SCENARIO, seed=args.seed)
        cells = {sc: certifications[f"{sc}/{strategy}"].path for sc in scenarios}
        read_parity = (
            None if args.skip_read_parity else run_read_parity(cells, strategy=strategy)
        )
        serve_cells = {sc: cells[sc] for sc in SERVE_SCENARIOS if sc in cells}
        serve_parity = (
            None
            if args.skip_serve or not serve_cells
            else run_serve_parity(serve_cells, strategy=strategy, seed=args.seed)
        )
    codecs = None if args.skip_codecs else certify_codecs(seed=args.seed)
    fuzz_report = (
        fuzz(n_fuzz, seed=args.seed, strategies=strategies, bases=scenarios)
        if n_fuzz > 0
        else None
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
        state = "certified" if parity.passed else f"FAILED {parity.bound_violations}"
        print(f"parity [{parity.scenario}] x {len(parity.fingerprints)} strategies: {state}")
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
            f"{len(fuzz_report.failures)} failures; "
            f"{len(fuzz_report.faults)} injected-fault cases, "
            f"{len(fuzz_report.fault_failures)} failures"
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
