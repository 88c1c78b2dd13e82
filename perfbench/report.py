"""Printing, the ``--out`` files and the all-workloads table run."""

from __future__ import annotations

import json
import os

from perfbench import metrics as M
from perfbench import runner


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_run(result: dict) -> None:
    """One run: every metric by name and unit."""
    rows = M.PER_LAYER if result["trace"] else M.END_TO_END
    print(
        f"# {result['workload']} seed={result['seed']} scale={result['scale']} "
        f"trace={result['trace']} wall={result['wall_s']:.1f}s "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(f"#   inputs sha256 {result['inputs_sha256']}")
    print("#   samples " + ", ".join(f"{k} x{v['n']}" for k, v in result["samples"].items()))
    if not result["trace"]:
        for role, what in M.ROLES[result["workload"]].items():
            print(f"#   {role:5s} = {what}")
    for row in rows:
        name, unit = row[0], row[1]
        print(f"{name:36s} {_fmt(result['metrics'][name]):>12s} {unit}")
    if result.get("first_error"):
        print("# first failure:", result["first_error"])


def print_table(results: "list[dict]", rows: list) -> None:
    """Workload x metric."""
    names = [r["workload"] for r in results]
    print(f"{'metric':36s} {'unit':10s} " + " ".join(f"{n:>16s}" for n in names))
    for row in rows:
        name, unit = row[0], row[1]
        cells = " ".join(f"{_fmt(r['metrics'][name]):>16s}" for r in results)
        print(f"{name:36s} {unit:10s} {cells}")


def print_ledger(result: dict) -> None:
    """One row per layer metric: value, unit, share of its side's stage
    sum, the end-to-end metric it should move; the unattributed rows last."""
    print(f"\n## ledger: {result['workload']} (seed {result['seed']})")
    print(f"{'layer metric':36s} {'value':>12s} {'unit':10s} {'share':>8s}  should move")
    for row in result["ledger"]:
        share = "-" if row["share"] is None else f"{row['share']:.1%}"
        side = f"{row['side'][0]}:" if row["side"] else ""
        print(
            f"{row['metric']:36s} {_fmt(row['value']):>12s} {row['unit']:10s} "
            f"{side + share:>8s}  {row['moves']}"
        )


def write_out(out: str, results: "list[dict]") -> None:
    """Machine-readable results: one file per run, spans in their own file."""
    os.makedirs(out, exist_ok=True)
    for r in results:
        r = dict(r)
        spans = r.pop("spans", None)
        if spans is not None:
            with open(os.path.join(out, f"trace_{r['workload']}.json"), "w") as fh:
                json.dump({"workload": r["workload"], "seed": r["seed"], "spans": spans}, fh)
        kind = "layers" if r["trace"] else "e2e"
        with open(os.path.join(out, f"{kind}_{r['workload']}.json"), "w") as fh:
            json.dump(r, fh, indent=1)


def table_run(names, seed: int, seconds: float, trace: int, out: "str | None") -> int:
    """Every named workload, timed (and traced with ``--trace``); tables,
    ledgers, JSON under ``out``; ends with a summary whose claim is null."""
    out = out or os.path.join(runner.WORK_ROOT, "out")
    timed, traced = [], []
    for name in names:
        print(f"... {name}: timed pass", flush=True)
        timed.append(runner.run_child(name, seed, seconds, 0))
        if trace:
            print(f"... {name}: traced pass", flush=True)
            traced.append(runner.run_child(name, seed, seconds, 1))
    print("\n## end-to-end (write / read / op are roles: see ROLES in metrics.py)")
    print_table(timed, M.END_TO_END)
    if traced:
        print("\n## per layer")
        print_table(traced, M.PER_LAYER)
        for r in traced:
            print_ledger(r)
    write_out(out, timed + traced)
    everything = timed + traced
    bad = any(r["failed"] or r["leaked_processes"] for r in everything)
    summary = {
        "seed": seed,
        "seconds": seconds,
        "out": out,
        "workloads": {
            r["workload"]: {
                "failed_fraction": r["failed"] / r["attempted"],
                "inputs_sha256": r["inputs_sha256"],
            }
            for r in timed
        },
        "correct": not bad,
        "claim": None,
    }
    for r in everything:
        if r.get("first_error"):
            print(f"# {r['workload']}: first failure: {r['first_error']}")
    print("\n" + json.dumps(summary, indent=1))
    return 1 if bad else 0
