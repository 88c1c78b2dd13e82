"""The four closed-loop workloads, driven through the public surface only
(``repro.open``, ``File.append_step``, ``repro.cache.configure``,
``python -m repro.serve`` + ``repro.serve.client``).

Every workload is one closed loop from one process: the next operation
starts when the previous one returned.  ``run(seconds)`` does one untimed
warm-up operation, then repeats the loop body until the time is up (at
least twice), so counters that depend on the data only — bytes stored,
cache hits per trace position — repeat exactly for a seed.

Each class exists at two scales: ``full`` is the measured workload,
``tiny`` is the same loop on a few KiB per partition, used only by
``--selftest`` and the tests.

The end-to-end metrics are named by role, so every workload measures
every one of them in its own loop: ``WRITE``, ``READ`` and ``OP`` name
the workload's spans that are its write of one file, its cold read and
its small repeated user operation.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import repro
import repro.cache
from repro.data.partition import grid_partition
from repro.serve.client import ServeClient, open_remote

from perfbench import SRC, inputs
from perfbench.check import bound_violations
from perfbench.inputs import ERROR_BOUND, KINDS
from perfbench.meter import Meter

MB = 1e6  # the benchmark's megabyte: 10^6 bytes of user float data


def grid_regions(shape, grid) -> "list[tuple[slice, ...]]":
    """The blocks of a 3-D ``shape`` cut ``grid`` ways per axis, in C order."""
    cuts = [[(i * n // g, (i + 1) * n // g) for i in range(g)] for n, g in zip(shape, grid)]
    return [
        (slice(*a), slice(*b), slice(*c))
        for a in cuts[0] for b in cuts[1] for c in cuts[2]
    ]


def as_lists(region) -> "list[list[int]]":
    """A slice tuple as the engine's ``[[start, stop], ...]`` region."""
    return [[s.start, s.stop] for s in region]


def _compressed(f, name: str, shape, **kw):
    """The benchmark's one dataset declaration: the paper's full solution
    at the benchmark's bound, default ``PipelineConfig`` (Rspace 1.25)."""
    return f.create_dataset(
        name, shape, np.float32, error_bound=ERROR_BOUND, bound_mode="abs",
        strategy="reorder", **kw,
    )


class Workload:
    """Common shape: set up, run for a while, report the end-to-end metrics."""

    name = ""
    #: why the workload exists (copied into BENCHMARK.json).
    why = ""
    #: the spans behind ``write_mbps``, ``read_mbps`` and ``op_*_ms``.
    WRITE = "write_file"
    READ = "read_file"
    OP = ""

    def __init__(self, seed: int, scale: str, workdir: str, meter: "Meter | None" = None):
        self.seed = int(seed)
        self.scale = scale
        self.p = self.SCALES[scale]
        self.workdir = workdir
        self.meter = meter or Meter(self.name)
        self.tag = f"{self.name}_{scale}"

    def path(self, leaf: str) -> str:
        return os.path.join(self.workdir, f"{self.tag}_{leaf}")

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo ``setup`` (files stay in the work directory, which the
        runner removes)."""

    def body(self, i: int) -> None:
        """One pass of the closed loop."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed first pass: lazy imports, model caches, allocator growth."""
        self.body(-1)

    def run(self, seconds: float) -> None:
        """Warm up (untimed, discarded), then loop until time is up."""
        self.warmup()
        self.meter.reset()
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            self.body(i)
            i += 1

    def unit(self, step: int = 0) -> dict:
        """One collective write as the pipeline sees it — ``names``, the
        global ``shape``, per-rank ``regions`` and ``blocks[name][rank]`` —
        for the traced pass to replay layer by layer."""
        raise NotImplementedError

    def verify(self, label: str, written: np.ndarray, read: np.ndarray) -> None:
        bad = bound_violations(written, read, ERROR_BOUND)
        if bad:
            self.meter.fail(f"{self.tag}: {label}: {bad} values outside the error bound")

    def metrics(self) -> "dict[str, float]":
        """The workload's share of the end-to-end metrics (the worker adds
        set-up time, memory and the failure count).  A throughput is user
        bytes over the *median* wall of the operation."""
        m = self.meter
        return {
            "write_mbps": self.user_bytes / MB / m.median(self.WRITE),
            "read_mbps": self.read_bytes / MB / m.median(self.READ),
            "stored_fraction": self.file_bytes / self.user_bytes,
            "op_p50_ms": 1e3 * m.median(self.OP),
            "op_p95_ms": 1e3 * m.pct(self.OP, 95),
        }

    def counters(self) -> dict:
        """Exact, seed-determined counts (identical on every run of a seed)."""
        return {"file_bytes": self.file_bytes, "user_bytes": self.user_bytes}

    def samples(self) -> "dict[str, dict]":
        """Per operation kind: how many were timed, and their median, mean,
        90th and 95th percentile wall in ms (the numbers behind the metrics)."""
        m = self.meter
        return {
            k: {
                "n": len(v), "median_ms": 1e3 * m.median(k), "mean_ms": 1e3 * m.total(k) / len(v),
                "p90_ms": 1e3 * m.pct(k, 90), "p95_ms": 1e3 * m.pct(k, 95),
            }
            for k, v in sorted(m.seconds.items())
        }


# ---------------------------------------------------------------------------
# snapshot_large
# ---------------------------------------------------------------------------

class SnapshotLarge(Workload):
    name = "snapshot_large"
    OP = "read_field"  # the restart read of one field
    why = (
        "checkpoint dump + restart read of few large fields (2 MiB partitions): "
        "per-byte codec cost dominates, encode and decode of the same bytes side by side"
    )
    SCALES = {
        # 5 fields x (64,128,128) in two 64x64x128 blocks = 2 MiB partitions
        "full": {"n": 128},
        "tiny": {"n": 32},
    }
    #: one field of each kind and a second ``turb``.  A field's read costs
    #: what its kind costs (smooth 1 : turb 2 : mixed 2.5 : rough 4); with
    #: an even number of kinds the median read is the gap between two of
    #: them, with these five it lies among the turb and mixed reads.
    FIELDS = (("smooth", 0), ("turb", 0), ("turb", 1), ("rough", 0), ("mixed", 0))

    def setup(self) -> None:
        n = self.p["n"]
        # The first half of the cube: two blocks, one per thread rank.
        self.fields = {
            f"{kind}{i}": inputs.field(kind, n, self.seed, i)[: n // 2]
            for kind, i in self.FIELDS
        }
        self.names = list(self.fields)
        self.shape = (n // 2, n, n)
        self.regions = grid_regions(self.shape, (1, 2, 1))
        # What an SPMD application holds: one contiguous block per rank.
        self.blocks = {
            k: [np.ascontiguousarray(a[r]) for r in self.regions]
            for k, a in self.fields.items()
        }
        self.user_bytes = self.read_bytes = sum(a.nbytes for a in self.fields.values())
        self.file = self.path("dump.phd5")
        self.file_bytes = 0
        self.input_digest = inputs.digest(self.fields.values())

    def write_file(self, path: str) -> None:
        with repro.open(path, "w") as f:
            for name in self.names:
                ds = _compressed(f, name, self.shape)
                for region, block in zip(self.regions, self.blocks[name]):
                    ds[region] = block

    def unit(self, step: int = 0) -> dict:
        return {
            "names": list(self.names), "shape": self.shape,
            "regions": [as_lists(r) for r in self.regions], "blocks": self.blocks,
        }

    def read_file(self, path: str, i: int) -> "dict[str, np.ndarray]":
        got = {}
        with repro.open(path, "r") as f:
            for name in self.names:
                with self.meter.operation("read_field", op=f"{i}.{name}"):
                    got[name] = f[name][...]
        return got

    def body(self, i: int) -> None:
        done = False
        with self.meter.operation("write_file", op=i):
            self.write_file(self.file)
            done = True
        if not done:
            return
        self.file_bytes = os.path.getsize(self.file)
        repro.cache.get_cache().clear()
        got = None
        with self.meter.operation("read_file", op=i):
            got = self.read_file(self.file, i)
        if got is not None:
            for name, arr in got.items():
                self.verify(f"iteration {i} field {name}", self.fields[name], arr)


# ---------------------------------------------------------------------------
# stream_small
# ---------------------------------------------------------------------------

class StreamSmall(Workload):
    name = "stream_small"
    OP = "append_step"  # the simulation's stall per step
    why = (
        "in-situ streaming of many 32 KiB partitions via append_step: fixed per-call cost "
        "(Huffman table, SPMD fan-out, allgather, footer growth) dominates, per-byte cost is small"
    )
    SCALES = {
        # 8 fields x 32^3 over 4 ranks = 32 KiB partitions, 10 steps a file
        "full": {"n": 32, "per_kind": 2, "steps": 10, "jump": 5, "read": (0, 5, 9)},
        "tiny": {"n": 16, "per_kind": 1, "steps": 8, "jump": 4, "read": (0, 4, 7)},
    }
    NRANKS = 4

    def setup(self) -> None:
        p = self.p
        n = p["n"]
        base = {
            f"{k}{i}": inputs.field(k, n, self.seed, i)
            for k in KINDS for i in range(p["per_kind"])
        }
        # The misprediction event: smooth0 turns rough at the jump step, so
        # the warm-started size prediction is wrong and slots overflow.
        turned = inputs.field("rough", n, self.seed, 99)
        self.names = list(base)
        self.steps = []
        for t in range(p["steps"]):
            snap = {}
            for name, arr in base.items():
                src = turned if (name == "smooth0" and t >= p["jump"]) else arr
                snap[name] = np.roll(src, t, axis=0)  # the field drifts a row a step
            self.steps.append(snap)
        self.shape = (n, n, n)
        self.step_bytes = sum(a.nbytes for a in self.steps[0].values())
        self.user_bytes = self.step_bytes * p["steps"]
        self.read_bytes = self.step_bytes * len(p["read"])
        self.file = self.path("stream.phd5")
        self.file_bytes = 0
        self.step_results: list = []
        self.input_digest = inputs.digest(
            a for snap in self.steps for a in snap.values()
        )

    def warmup(self) -> None:
        """Two untimed steps and one read, not a whole file."""
        self.write_file(self.file, -1, nsteps=2)
        with repro.open(self.file, "r") as f:
            for name in self.names:
                f[name][0]

    def write_file(self, path: str, i: int = 0, nsteps: "int | None" = None) -> list:
        """One file: create the time-axis datasets, append every step."""
        results = []
        f = repro.open(path, "w", nranks=self.NRANKS)
        try:
            for name in self.names:
                _compressed(f, name, self.shape, maxshape=(None, *self.shape))
            for t, snap in enumerate(self.steps[:nsteps]):
                with self.meter.operation("append_step", op=f"{i}.{t}"):
                    results.append(f.append_step(snap))
        finally:
            f.close()
        return results

    def unit(self, step: int = 0) -> dict:
        # The session's own decomposition of a full assignment.
        parts = grid_partition(self.shape, self.NRANKS)
        snap = self.steps[step]
        return {
            "names": list(self.names), "shape": self.shape,
            "regions": [as_lists(p.slices) for p in parts],
            "blocks": {
                name: [np.ascontiguousarray(snap[name][p.slices]) for p in parts]
                for name in self.names
            },
        }

    def read_steps(self, path: str) -> dict:
        with repro.open(path, "r") as f:
            return {
                (name, t): f[name][t] for t in self.p["read"] for name in self.names
            }

    def body(self, i: int) -> None:
        done = False
        with self.meter.operation("write_file", op=i):
            self.step_results = self.write_file(self.file, i)
            done = True
        if not done:
            return
        self.file_bytes = os.path.getsize(self.file)
        repro.cache.get_cache().clear()
        got = None
        with self.meter.operation("read_file", op=i):
            got = self.read_steps(self.file)
        if got is not None:
            for (name, t), arr in got.items():
                self.verify(f"file {i} step {t} field {name}", self.steps[t][name], arr)


# ---------------------------------------------------------------------------
# hotspot_read
# ---------------------------------------------------------------------------

class HotspotRead(Workload):
    name = "hotspot_read"
    READ = "read_field"  # one field of a cold scan (four a scan, all of one kind)
    OP = "query"  # five consecutive reads of the seeded trace
    why = (
        "analysis reads of a finished file (1 MiB partitions): cold scans and an 80/20 "
        "region trace under a cache a quarter of the data; reads and queries touch no write path"
    )
    SCALES = {
        # 4 fields x (128,128,64) in four 64^3 blocks = 16 partitions of
        # 1 MiB; the cache holds 4 of them (a quarter), the hot set is 2.
        "full": {"n": 128, "box": 32, "queries": 500},
        "tiny": {"n": 32, "box": 8, "queries": 120},
    }
    #: reads in one query: four in the hot set and one outside it.
    QUERY = 5
    NFIELDS = 4
    GRID = (2, 2, 1)
    CACHE_PARTS = 4
    HOT_PARTS = 2
    #: The loop goes ``CYCLES`` times through {rewrite the analysed file,
    #: scan it cold, replay the next stretch of the trace}, these shares of
    #: a cycle for the first two.  The host's speed drifts by 10 % and more
    #: within seconds: a metric measured at one end of the run only spread
    #: twice as far between runs as one sampled all along it.  The rewrites
    #: are there because every run reports a ``write_mbps``, and three
    #: set-up writes were too few to report a steady one from.
    CYCLES = 3
    WRITE_SHARE = 0.2
    SCAN_SHARE = 0.25

    def setup(self) -> None:
        n = self.p["n"]
        # One kind throughout, so that a miss costs the same whichever
        # partition it hits and the slow reads form one class.
        self.fields = {
            f"turb{i}": np.ascontiguousarray(
                inputs.field("turb", n, self.seed, i)[:, :, : n // 2]
            )
            for i in range(self.NFIELDS)
        }
        self.names = list(self.fields)
        self.shape = (n, n, n // 2)
        self.regions = grid_regions(self.shape, self.GRID)
        self.blocks = {
            k: [np.ascontiguousarray(a[r]) for r in self.regions]
            for k, a in self.fields.items()
        }
        self.user_bytes = sum(a.nbytes for a in self.fields.values())
        self.read_bytes = self.user_bytes // self.NFIELDS
        self.part_bytes = self.read_bytes // len(self.regions)
        self.budget = self.CACHE_PARTS * self.part_bytes
        self.trace = self._make_trace()
        self.file = self.path("analysis.phd5")
        self.write_file()
        self.file_bytes = os.path.getsize(self.file)
        self.input_digest = inputs.digest(
            list(self.fields.values())
            + [np.array([
                [[s.start, s.stop] for s in key] for query in self.trace for _, key in query
            ])]
        )

    def _make_trace(self) -> "list[list[tuple[str, tuple[slice, ...]]]]":
        """Seeded queries of five reads, stratified so every seed has the
        same mix.  Four reads of a query are a box in one of two *hot*
        partitions (two blocks of the first field: they fit the cache with
        two slots to spare, so cold reads rarely push them out); the fifth,
        at a seeded place among them, is in nine queries of ten a box in
        one of the 14 cold partitions (a miss, unless it is one of the last
        two read) and in one a full z-plane of the first field, which
        crosses its four partitions (two misses or more).
        The query, not the read, is the timed operation: a hit is 30 to
        130 us of small-array work whose cost is the state of the CPU's
        caches, and as a median of its own it moved by 7 to 27 % between
        runs of the same code; a query is one or two partition decodes.
        The median query is therefore a one-miss query, and the slowest
        tenth, with the 95th percentile in their middle, the plane queries."""
        n, box, count = self.p["n"], self.p["box"], self.p["queries"]
        rng = np.random.default_rng([self.seed, 7, n])
        first = self.names[0]
        hot_blocks = [int(r) for r in rng.permutation(len(self.regions))[: self.HOT_PARTS]]
        hot = [(first, r) for r in hot_blocks]
        pools = {
            "hot": hot,
            "cold": [
                (k, r) for k in self.names for r in range(len(self.regions))
                if (k, r) not in hot
            ],
        }
        fifths = np.concatenate([
            rng.permutation(["cold"] * 9 + ["plane"]) for _ in range(-(-count // 10))
        ])[:count]
        trace = []
        for fifth in fifths:
            kinds = ["hot"] * (self.QUERY - 1)
            kinds.insert(int(rng.integers(self.QUERY)), str(fifth))
            query = []
            for what in kinds:
                pick, frac = int(rng.integers(2**31)), rng.random(3)
                if what == "plane":
                    z = int(frac[2] * self.shape[2])
                    query.append((first, (slice(0, n), slice(0, n), slice(z, z + 1))))
                    continue
                kind, r = pools[what][pick % len(pools[what])]
                query.append((kind, tuple(
                    slice(lo, lo + box) for lo in (
                        s.start + int(f * (s.stop - s.start - box + 1))
                        for s, f in zip(self.regions[r], frac)
                    )
                )))
            trace.append(query)
        return trace

    def unit(self, step: int = 0) -> dict:
        return {
            "names": list(self.names), "shape": self.shape,
            "regions": [as_lists(r) for r in self.regions], "blocks": self.blocks,
        }

    def write_file(self) -> None:
        with repro.open(self.file, "w") as f:
            for name in self.names:
                ds = _compressed(f, name, self.shape)
                for region, block in zip(self.regions, self.blocks[name]):
                    ds[region] = block

    def rewrite(self, i) -> None:
        with self.meter.operation("write_file", op=i):
            self.write_file()

    def scan(self, i) -> None:
        repro.cache.get_cache().clear()
        got = None
        with self.meter.operation("read_file", op=i):
            with repro.open(self.file, "r") as f:
                got = {}
                for name in self.names:
                    with self.meter.span("read_field"):
                        got[name] = f[name][...]
        if got is not None:
            for name, arr in got.items():
                self.verify(f"scan {i} field {name}", self.fields[name], arr)

    def region_trace(self, budget: int, queries, stop_at: "float | None" = None, suffix: str = ""):
        """Replay ``queries`` - ``(number, query)`` pairs of the seeded trace -
        through one reader under ``budget`` bytes of decoded-partition cache,
        all of them or until ``stop_at`` (but ten at least).  Returns the
        cache's and the file's read counters and, per read, how many
        partitions it had to decode (0 = a pure hit).  The spans are
        ``query`` and, inside it, ``region_read``, + ``suffix``."""
        cache = repro.cache.get_cache()
        decoded = []
        try:
            repro.cache.configure(budget)
            cache.clear()
            cache.reset_stats()
            with repro.open(self.file, "r") as f:
                for done, (q, query) in enumerate(queries, 1):
                    got = []
                    with self.meter.operation("query" + suffix, op=q):
                        for kind, key in query:
                            before = f.read_stats.partitions_decoded
                            with self.meter.span("region_read" + suffix):
                                got.append(f[kind][key])
                            decoded.append(f.read_stats.partitions_decoded - before)
                    if len(got) == len(query):
                        for (kind, key), arr in zip(query, got):
                            self.verify(f"query {q}", self.fields[kind][key], arr)
                    if stop_at is not None and time.perf_counter() >= stop_at and done >= 10:
                        break
                stats, reads = cache.stats(), f.read_stats.to_json()
        finally:
            repro.cache.configure(repro.cache.DEFAULT_MAX_BYTES)
        return stats, reads, decoded

    def warmup(self) -> None:
        self.scan(-1)

    def run(self, seconds: float) -> None:
        self.warmup()
        self.meter.reset()
        queries = itertools.cycle(enumerate(self.trace))
        start = time.perf_counter()
        for cycle in range(self.CYCLES):
            begin = start + cycle * seconds / self.CYCLES
            for phase, share in (
                (self.rewrite, self.WRITE_SHARE), (self.scan, self.WRITE_SHARE + self.SCAN_SHARE),
            ):
                until = begin + share * seconds / self.CYCLES
                i = 0
                while i < 1 or time.perf_counter() < until:
                    phase(f"{cycle}.{i}")
                    i += 1
            self.region_trace(self.budget, queries, stop_at=begin + seconds / self.CYCLES)


# ---------------------------------------------------------------------------
# served_shared
# ---------------------------------------------------------------------------

class Daemon:
    """A ``python -m repro.serve --unix <path>`` child with CLI defaults
    (``--nranks 4 --executor thread``).

    Addressed by bare socket path (``_connect`` does not take the
    ``unix:`` prefix the docs show) and stopped with SIGTERM + wait (the
    wire ``shutdown`` op can close the connection before it replies).
    """

    def __init__(self, workdir: str, sock: str) -> None:
        self.sock = sock
        self.sock_file = os.path.join(workdir, sock)
        if os.path.exists(self.sock_file):
            os.unlink(self.sock_file)  # a daemon never unlinks what it bound
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(workdir, sock + ".log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--unix", sock],
            cwd=workdir, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Return after the first answered ping."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            try:
                with ServeClient(self.sock) as c:
                    c.ping()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL if it does not drain.  Always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.sock_file):
            os.unlink(self.sock_file)


class ServedShared(Workload):
    name = "served_shared"
    WRITE = "round"  # open -> create -> assign -> flush -> close, both tenants
    OP = "commit"    # flush() until the coalesced collective run has landed
    why = (
        "two tenants write halves of shared datasets through the ingest daemon (512 KiB "
        "partitions): socket framing, fair queue, coalescer and writer thread in front of "
        "the same codec"
    )
    SCALES = {
        "full": {"n": 64},   # 4 datasets x 64^3, each tenant a 32x64x64 half
        "tiny": {"n": 16},
    }
    TENANTS = 2
    #: one round's file in this many is read back cold (locally) and checked.
    READ_EVERY = 5
    #: One round in this many (the last of each ten) is a checkpoint: every
    #: field is written twice, under two names, so its commit lands eight
    #: datasets in one collective run and takes about twice as long.  The
    #: commits of ordinary rounds differ by a few % only, and the 95th
    #: percentile of such a distribution is the host's slowest twentieth of
    #: the run, not the program's (it moved by 11 to 20 % between sets of
    #: runs of the same code); with a tenth of the commits in a class of
    #: their own it is that class's median.
    CHECKPOINT_EVERY = 10
    daemon: "Daemon | None" = None

    def setup(self) -> None:
        n = self.p["n"]
        self.fields = {k: inputs.field(k, n, self.seed) for k in KINDS}
        self.halves = grid_regions((n, n, n), (self.TENANTS, 1, 1))
        self.blocks = {
            k: [np.ascontiguousarray(a[h]) for h in self.halves]
            for k, a in self.fields.items()
        }
        self.shape = (n, n, n)
        self.user_bytes = self.read_bytes = sum(a.nbytes for a in self.fields.values())
        self.file_bytes = 0
        self.input_digest = inputs.digest(self.fields.values())
        self.daemon = Daemon(self.workdir, f"{self.tag}.sock")
        self.daemon.wait_ready()
        self.server_stats: dict = {}

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def unit(self, step: int = 0) -> dict:
        return {
            "names": list(KINDS), "shape": self.shape,
            "regions": [as_lists(h) for h in self.halves], "blocks": self.blocks,
        }

    def round_path(self, r: int) -> str:
        return f"{self.tag}_round{r % self.READ_EVERY}.phd5"

    def round_datasets(self, r: int) -> "list[tuple[str, str]]":
        """``(dataset name, input kind)`` of round ``r``'s datasets."""
        names = [(kind, kind) for kind in KINDS]
        if r % self.CHECKPOINT_EVERY == self.CHECKPOINT_EVERY - 1:
            names += [(f"{kind}_again", kind) for kind in KINDS]
        return names

    def _tenant(self, k: int, barrier: threading.Barrier) -> None:
        """One tenant = one connection, in lock step with the other."""
        m = self.meter
        try:
            client = ServeClient(self.daemon.sock, tenant=f"tenant{k}")
        except Exception as exc:  # noqa: BLE001
            barrier.abort()
            m.fail(repr(exc))
            return
        try:
            r = -1  # round -1 is the untimed warm-up
            while True:
                if k == 0:
                    self._go = (
                        r < self._rounds if self._rounds is not None
                        else r < 2 or time.perf_counter() < self._deadline
                    )
                barrier.wait()
                if not self._go:
                    break
                t0 = time.perf_counter()
                path = self.round_path(r)
                datasets = self.round_datasets(r)
                f = open_remote(self.daemon.sock, path, "w", client=client)
                if k == 0:
                    for name, _kind in datasets:
                        _compressed(f, name, self.shape)
                barrier.wait()  # the datasets exist
                dss = [f[name] for name, _kind in datasets]
                for (name, kind), ds in zip(datasets, dss):
                    with m.operation("assign", op=f"{r}.{k}.{name}"):
                        ds[self.halves[k]] = self.blocks[kind][k]
                barrier.wait()  # every block is acknowledged
                if k == 0:
                    with m.operation("commit", op=r):
                        landed = f.flush()
                        if len(landed) != len(datasets):
                            raise RuntimeError(f"round {r}: flush landed {landed}")
                barrier.wait()
                f.close()
                barrier.wait()  # both handles released: the file is closed
                if k == 0:
                    self._end_round(r, t0, path)
                r += 1
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # noqa: BLE001 - counted, and the peer is released
            barrier.abort()
            m.fail(repr(exc))
        finally:
            client.close()

    def _end_round(self, r: int, t0: float, path: str) -> None:
        m = self.meter
        wall = time.perf_counter() - t0
        if r < 0:  # warm-up: forget it, start the clock
            m.reset()
            self._deadline = time.perf_counter() + self._seconds
            return
        m.add("round", wall)
        full = os.path.join(self.workdir, path)
        datasets = self.round_datasets(r)
        got = None
        if r % self.READ_EVERY == 0:  # an ordinary round: the consumer's cold read
            self.file_bytes = os.path.getsize(full)
            with m.operation("read_file", op=r):
                got = self._read_back(full, datasets)
        elif r == self.CHECKPOINT_EVERY - 1:  # the first checkpoint: checked, not timed
            got = self._read_back(full, datasets)
        for name, kind in datasets if got else ():
            self.verify(f"round {r} dataset {name}", self.fields[kind], got[name])

    @staticmethod
    def _read_back(full: str, datasets) -> "dict[str, np.ndarray]":
        repro.cache.get_cache().clear()
        with repro.open(full, "r") as f:
            return {name: f[name][...] for name, _kind in datasets}

    def run(self, seconds: float, rounds: "int | None" = None) -> None:
        """One untimed warm-up round, then rounds until the time is up (or
        exactly ``rounds`` of them)."""
        self._rounds, self._seconds = rounds, seconds
        self._deadline = float("inf")  # armed when the warm-up round ends
        barrier = threading.Barrier(self.TENANTS)
        threads = [
            threading.Thread(target=self._tenant, args=(k, barrier))
            for k in range(self.TENANTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ServeClient(self.daemon.sock) as admin:
            self.server_stats = admin.stats()


WORKLOADS = {
    w.name: w for w in (SnapshotLarge, StreamSmall, HotspotRead, ServedShared)
}
