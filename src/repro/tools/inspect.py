"""Inspect a PHD5 container from the command line::

    python -m repro.tools.inspect summary snapshot.phd5

``summary`` reads the file through the :mod:`repro.api` facade and
prints one row per dataset: its declared error bound, write strategy,
SPMD width, step count (time-axis datasets), stored bytes, overflow bytes
(the tails the paper's extra-space mechanism redirected) and compression
ratio, then a TOTAL row and a read-path footer (partitions decoded,
decoded-partition cache hit-rate, bytes decoded; ``--no-read-stats``
skips the probe reads behind it).
"""

from __future__ import annotations

import argparse

from repro.hdf5.dataset import Dataset as EngineDataset


def _stored_overflow(engine: EngineDataset) -> tuple[int, int]:
    """Stored bytes and redirected overflow bytes of one engine dataset."""
    overflow = 0
    if engine.layout == "declared":
        overflow = sum(
            engine.partition(i).overflow_nbytes for i in range(engine.n_partitions)
        )
    return engine.stored_nbytes, overflow


def _ratio(logical: int, stored: int) -> float:
    return logical / stored if stored else float("inf")


def cmd_summary(args: argparse.Namespace) -> int:
    """Pretty-print a file the way the repro.open facade sees it."""
    from repro import api
    from repro.core.session import step_group

    with api.open(args.path, "r") as f:
        engine = f._engine
        facade = bool(engine.root.attrs.get("repro:facade"))
        steps = f.steps_written
        origin = "repro.open facade" if facade else "engine driver"
        print(f"{args.path}: {origin}-written"
              + (f", {steps} time step(s)" if steps else ""))
        datasets = f.datasets()
        if not datasets:
            print("(no datasets)")
            return 0
        print(f"{'dataset':28s} {'kind':>8s} {'shape':>18s} {'dtype':>8s} "
              f"{'bound':>9s} {'strategy':>8s} {'ranks':>5s} {'steps':>5s} "
              f"{'stored':>10s} {'overflow':>9s} {'ratio':>7s}")
        totals = [0, 0, 0]  # logical, stored, overflow
        for ds in datasets:
            attrs = ds.attrs
            bound = ds.declared_bound
            if ds.time_axis:
                kind, n_steps = "time", steps
                parts = [
                    _stored_overflow(engine[f"{step_group(t)}/{ds.leaf}"])
                    for t in range(steps)
                ]
            else:
                kind, n_steps = "snap", "-"
                parts = [_stored_overflow(ds._engine)] if ds._engine is not None else []
            stored = sum(s for s, _ in parts)
            overflow = sum(o for _, o in parts)
            logical = ds.size * ds.dtype.itemsize
            for i, value in enumerate((logical, stored, overflow)):
                totals[i] += value
            print(f"{ds.name.lstrip('/'):28s} {kind:>8s} "
                  f"{str(ds.shape):>18s} {str(ds.dtype):>8s} "
                  f"{(f'{bound:.1e}' if bound is not None else 'exact'):>9s} "
                  f"{attrs.get('repro:strategy', '-'):>8s} "
                  f"{str(attrs.get('repro:nranks', '-')):>5s} {str(n_steps):>5s} "
                  f"{stored:>10d} {overflow:>9d} {_ratio(logical, stored):>7.2f}")
        logical, stored, overflow = totals
        print(f"{'TOTAL':28s} {'':>67s} {stored:>10d} {overflow:>9d} "
              f"{_ratio(logical, stored):>7.2f}")
        if not args.no_read_stats:
            _print_read_stats(f, datasets)
    return 0


def _print_read_stats(f, datasets) -> None:
    """The summary's read-path footer.

    Decodes every snapshot dataset twice through the facade — the first
    pass measures decode volume, the second shows what the decoded-
    partition cache absorbs — and prints the per-file counters plus the
    process-wide cache occupancy.
    """
    from repro.cache import cache_stats

    probe = [ds for ds in datasets if not ds.time_axis and ds.written]
    if not probe:
        return
    for ds in probe:
        ds[...]
        ds[...]
    stats = f.read_stats
    cache = cache_stats()
    print(f"\nread path ({len(probe)} dataset(s), two passes each):")
    print(f"  partitions decoded: {stats.partitions_decoded}, "
          f"cache hits: {stats.cache_hits}, "
          f"hit rate: {stats.hit_rate:.2f}")
    print(f"  bytes decoded: {stats.bytes_decoded}")
    print(f"  process cache: {cache.entries} entries, "
          f"{cache.current_bytes}/{cache.max_bytes} bytes"
          + ("" if cache.max_bytes else " (disabled)"))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(prog="repro.tools.inspect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_summary = sub.add_parser(
        "summary", help="per-dataset bound/strategy/steps/stored/overflow/ratio"
    )
    p_summary.add_argument("path")
    p_summary.add_argument("--no-read-stats", action="store_true",
                           help="skip the read-path probe (which decodes "
                                "every snapshot dataset twice to report "
                                "partition decode counts and cache hit-rate)")
    p_summary.set_defaults(fn=cmd_summary)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
