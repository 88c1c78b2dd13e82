"""Inspect PHD5 containers from the command line.

The HDF5 ecosystem ships ``h5ls``/``h5dump``/``h5stat``; this module is
their PHD5 counterpart::

    python -m repro.tools.inspect ls      snapshot.phd5      # object tree
    python -m repro.tools.inspect stat    snapshot.phd5      # storage stats
    python -m repro.tools.inspect dump    snapshot.phd5 fields/temperature
    python -m repro.tools.inspect parts   snapshot.phd5 fields/temperature
    python -m repro.tools.inspect summary snapshot.phd5      # facade view

``stat`` reports per-dataset compression/reservation/overflow accounting —
the quantities the paper's extra-space mechanism trades — and ``parts``
prints a declared dataset's partition table (offsets, reserved vs actual,
overflow redirections).  ``summary`` reads the file through the
:mod:`repro.api` facade and pretty-prints what the facade recorded: one
row per dataset with its declared error bound, write strategy, SPMD
width, step count (time-axis datasets), and compression ratio, plus a
read-path footer (partitions decoded, decoded-partition cache hit-rate,
bytes decoded; ``--no-read-stats`` skips the probe reads behind it).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.hdf5.dataset import Dataset
from repro.hdf5.file import File
from repro.hdf5.group import Group


def _walk(obj, depth: int = 0, out=None) -> None:
    # Resolve stdout at call time so pytest's capture (and any redirect)
    # sees the output.
    out = out or sys.stdout
    pad = "  " * depth
    if isinstance(obj, Group):
        label = obj.path if obj.path == "/" else obj.path.rsplit("/", 1)[-1]
        print(f"{pad}{label}/  (group, {len(obj.keys())} links)", file=out)
        for _, child in obj.items():
            _walk(child, depth + 1, out)
    else:
        ds: Dataset = obj
        extra = f", partitions={ds.n_partitions}" if ds.layout == "declared" else ""
        filt = " <- sz" if ds.filters else ""
        print(
            f"{pad}{ds.path.rsplit('/', 1)[-1]}  "
            f"(dataset {ds.shape} {ds.dtype} {ds.layout}{extra}{filt})",
            file=out,
        )


def cmd_ls(args: argparse.Namespace) -> int:
    """Print the object tree."""
    with File(args.path, "r") as f:
        _walk(f.root)
    return 0


def cmd_stat(args: argparse.Namespace) -> int:
    """Print per-dataset storage accounting."""
    with File(args.path, "r") as f:
        total_logical = 0
        total_stored = 0
        print(f"{'dataset':40s} {'logical':>12s} {'stored':>12s} {'ratio':>7s} "
              f"{'overflow':>9s}")
        for path, obj in f.root.visit():
            if not isinstance(obj, Dataset):
                continue
            stored = obj.stored_nbytes
            total_logical += obj.nbytes
            total_stored += stored
            overflow = 0
            if obj.layout == "declared":
                overflow = sum(
                    obj.partition(i).overflow_nbytes for i in range(obj.n_partitions)
                )
            ratio = obj.nbytes / stored if stored else float("inf")
            print(f"{path:40s} {obj.nbytes:12d} {stored:12d} {ratio:7.2f} {overflow:9d}")
        if total_stored:
            print(f"{'TOTAL':40s} {total_logical:12d} {total_stored:12d} "
                  f"{total_logical / total_stored:7.2f}")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    """Print a dataset's decoded contents (summary beyond --limit values)."""
    with File(args.path, "r") as f:
        obj = f[args.dataset]
        if not isinstance(obj, Dataset):
            print(f"error: {args.dataset!r} is a group", file=sys.stderr)
            return 2
        data = obj.read()
        flat = data.ravel()
        limit = args.limit
        head = np.array2string(flat[:limit], precision=6, threshold=limit)
        print(f"{obj.path}: shape={obj.shape} dtype={obj.dtype}")
        print(f"values[:{min(limit, flat.size)}] = {head}")
        print(f"min={flat.min():.6g} max={flat.max():.6g} mean={flat.mean():.6g}")
    return 0


def cmd_parts(args: argparse.Namespace) -> int:
    """Print a declared dataset's partition table."""
    with File(args.path, "r") as f:
        obj = f[args.dataset]
        if not isinstance(obj, Dataset) or obj.layout != "declared":
            print("error: not a declared-layout dataset", file=sys.stderr)
            return 2
        print(f"{'part':>5s} {'offset':>12s} {'reserved':>10s} {'actual':>10s} "
              f"{'fill':>6s} {'ovf_bytes':>10s} {'ovf_offset':>12s}")
        for i in range(obj.n_partitions):
            e = obj.partition(i)
            fill = e.actual / e.reserved if e.reserved else float("inf")
            print(f"{i:5d} {e.offset:12d} {e.reserved:10d} {e.actual:10d} "
                  f"{fill:6.1%} {e.overflow_nbytes:10d} {e.overflow_offset:12d}")
    return 0


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
              f"{'ratio':>7s}")
        for ds in datasets:
            attrs = ds.attrs
            bound = ds.declared_bound
            strategy = attrs.get("repro:strategy", "-")
            nranks = attrs.get("repro:nranks", "-")
            if ds.time_axis:
                kind, n_steps = "time", steps
                stored = sum(
                    engine[f"{step_group(t)}/{ds.leaf}"].stored_nbytes
                    for t in range(steps)
                )
                logical = ds.size * ds.dtype.itemsize
            else:
                kind, n_steps = "snap", "-"
                stored = ds._engine.stored_nbytes if ds._engine is not None else 0
                logical = ds.size * ds.dtype.itemsize
            ratio = logical / stored if stored else float("inf")
            print(f"{ds.name.lstrip('/'):28s} {kind:>8s} "
                  f"{str(ds.shape):>18s} {str(ds.dtype):>8s} "
                  f"{(f'{bound:.1e}' if bound is not None else 'exact'):>9s} "
                  f"{strategy:>8s} {str(nranks):>5s} {str(n_steps):>5s} "
                  f"{ratio:>7.2f}")
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
    p_ls = sub.add_parser("ls", help="object tree")
    p_ls.add_argument("path")
    p_ls.set_defaults(fn=cmd_ls)
    p_stat = sub.add_parser("stat", help="storage statistics")
    p_stat.add_argument("path")
    p_stat.set_defaults(fn=cmd_stat)
    p_dump = sub.add_parser("dump", help="decode and print a dataset")
    p_dump.add_argument("path")
    p_dump.add_argument("dataset")
    p_dump.add_argument("--limit", type=int, default=8)
    p_dump.set_defaults(fn=cmd_dump)
    p_parts = sub.add_parser("parts", help="partition table of a declared dataset")
    p_parts.add_argument("path")
    p_parts.add_argument("dataset")
    p_parts.set_defaults(fn=cmd_parts)
    p_summary = sub.add_parser(
        "summary", help="facade view: per-dataset bound/strategy/steps/ratio"
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
