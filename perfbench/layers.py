"""The traced pass: per-layer metrics and the outside-in ledger.

Never mixed with the timed pass.  Two parts, both under spans recorded
in perfbench's own code (``Meter.span``), kept in memory and handed to
the runner when the pass ends:

1. **Operation pass** - a fixed number of the workload's own operations
   (so exact counters repeat for a seed), each one a span.
2. **Replay** - the partitions of one of those operations go stage by
   stage through each layer's *public* functions in pipeline order, every
   stage's output feeding the next.  What only a private helper yields
   (the symbol array) is prepared here, untimed; its cost therefore lands
   in ``compression.sz_encode_other_ms`` / ``sz_decode_other_ms``.

The ledger then sets one operation's wall against the sum of the stages
replayed for it; the difference is printed as the *unattributed* row.
It is signed: thread ranks overlap on two cores, so wall can be smaller
than the serial stage sum.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading

import numpy as np

import repro
import repro.cache
from repro.cache import DecodedPartitionCache
from repro.compression.huffman import build_code, huffman_decode, huffman_encode
from repro.compression.lossless import lossless_compress, lossless_decompress
from repro.compression.predictors import lorenzo_forward, lorenzo_inverse
from repro.compression.sz import SZCompressor
from repro.core.config import PipelineConfig
from repro.core.pipeline import RealDriver
from repro.core.strategy import (
    CompressWritePhase, OverflowPhase, PlanPhase, PredictPhase, predict_phase_costs,
)
from repro.core.writers import default_models
from repro.exec import get_executor
from repro.hdf5 import FILTER_SZ, DatasetCreateProps, FileAccessProps, NativeVOL
from repro.hdf5 import File as EngineFile
from repro.modeling import RatioQualityModel, sample_partition_stats
from repro.mpi import run_spmd
from repro.serve.client import ServeClient
from repro.serve.protocol import pack_array, recv_frame, send_frame
from repro.serve.queue import FairWorkQueue

from perfbench import metrics as M
from perfbench.check import bound_violations
from perfbench.inputs import ERROR_BOUND
from perfbench.meter import Meter
from perfbench.workloads import MB, WORKLOADS, _compressed

#: queries of the seeded trace the traced pass replays (phases B and C).
TRACE_QUERIES = 40
#: rounds / iterations of the workload's own operations in the traced pass.
OP_COUNTS = {M.SNAP: 2, M.STREAM: 1, M.HOT: 1, M.SERVED: 30}
#: repeats of a microsecond-scale stage (the median is reported).
MICRO_REPS = 25
#: facade-vs-driver write pairs (the median difference is reported).
PAIRS = 5
MACHINE = "bebop"  # repro.open's default calibrated profile
#: what every compressed dataset of the benchmark is written with.
CODEC = SZCompressor(bound=ERROR_BOUND, mode="abs")
CFG = PipelineConfig()


# ---------------------------------------------------------------------------
# replay: one collective write, layer by layer
# ---------------------------------------------------------------------------

def _symbolize(deltas: np.ndarray, radius: int):
    """What ``SZCompressor`` does between Lorenzo and Huffman (a private
    helper there): 0 = escape, 1..2r = delta + r + 1."""
    flat = deltas.ravel()
    shifted = flat + radius
    ok = (shifted >= 0) & (shifted < 2 * radius)
    return np.where(ok, shifted + 1, 0), flat[~ok]


def _desymbolize(symbols: np.ndarray, outliers: np.ndarray, radius: int) -> np.ndarray:
    d = symbols.astype(np.int64) - (radius + 1)
    d[symbols == 0] = outliers
    return d


def replay_partition(meter: Meter, block: np.ndarray, label: str) -> dict:
    """One partition through modeling, encode and decode, a span a stage."""
    span, codec, cfg, r = meter.span, CODEC, CFG, CODEC.radius
    with span("replay.partition", op=label):
        with span("modeling.sample_stats"):
            sample_partition_stats(block, ERROR_BOUND, "abs", r, fraction=cfg.sample_fraction)
        with span("modeling.ratio_predict"):
            predicted = RatioQualityModel(
                codec, fraction=cfg.sample_fraction, lossless_estimator=cfg.lossless_estimator
            ).predict(block).predicted_nbytes
        spec = codec.quantizer.resolve(block)
        with span("compression.quantize"):
            q = codec.quantizer.quantize(block, spec)
        with span("compression.lorenzo_fwd"):
            d = lorenzo_forward(q)
        symbols, outliers = _symbolize(d, r)
        freqs = np.bincount(symbols, minlength=2 * r + 1)
        with span("compression.huffman_build"):
            build_code(freqs)
        with span("compression.huffman_encode"):
            huff = huffman_encode(symbols, 2 * r + 1)
        body = huff + outliers.astype("<i8").tobytes()
        with span("compression.lossless_wrap"):
            wrapped = lossless_compress(body, codec.lossless, codec.lossless_level)
        with span("compression.sz_compress"):
            stream = codec.compress(block)

        with span("compression.lossless_unwrap"):
            body2, _ = lossless_decompress(wrapped)
        with span("compression.huffman_decode"):
            symbols2, used = huffman_decode(body2)
        d2 = _desymbolize(symbols2, np.frombuffer(body2[used:], dtype="<i8"), r)
        with span("compression.lorenzo_inv"):
            q2 = lorenzo_inverse(d2.reshape(block.shape))
        with span("compression.dequantize"):
            staged = codec.quantizer.dequantize(q2, spec)
        with span("compression.sz_decompress"):
            whole = codec.decompress(stream)
    # The stage chain must be the codec: same bytes in, same values out.
    if not np.array_equal(staged.astype(block.dtype), whole):
        meter.fail(f"replay {label}: staged decode differs from SZCompressor.decompress")
    if bound_violations(block, whole, ERROR_BOUND):
        meter.fail(f"replay {label}: decode outside the error bound")
    return {"predicted": int(predicted), "stream": stream, "nbytes": block.nbytes}


def _matrix(unit: dict, per_part: dict, key) -> np.ndarray:
    return np.array([
        [key(per_part[(name, r)]) for r in range(len(unit["regions"]))]
        for name in unit["names"]
    ])


def replay_plan(meter: Meter, unit: dict, per_part: dict) -> dict:
    """The planning phases and the collectives of one write, at the
    workload's field and rank counts."""
    span, cfg = meter.span, CFG
    names, nranks = unit["names"], len(unit["regions"])
    with span("core.predict_sizes"):
        PredictPhase(enabled=True).predict_sizes(
            {n: unit["blocks"][n][0] for n in names}, dict.fromkeys(names, CODEC), cfg
        )
    predicted = _matrix(unit, per_part, lambda p: p["predicted"])
    original = _matrix(unit, per_part, lambda p: p["nbytes"])
    actual = _matrix(unit, per_part, lambda p: len(p["stream"]))
    tmodel, wmodel = default_models(MACHINE, nranks)
    compress_s, write_s = predict_phase_costs(
        tmodel, wmodel, [unit["blocks"][n][0].size for n in names], predicted[:, 0].tolist()
    )
    plan, order = PlanPhase(source="predicted", extra_space=True), CompressWritePhase(reorder=True)
    overflow = OverflowPhase(enabled=True)
    for _ in range(MICRO_REPS):
        with span("core.plan_table"):
            table = plan.compute_table(predicted, original, cfg, 4096)
        with span("core.field_order"):
            order.field_order(names, compress_s, write_s)
        with span("core.overflow_plan"):
            tails = overflow.compute_plan(actual, table.reserved, table.data_end)

    payload = {  # what RealDriver all-gathers before planning
        "predicted": predicted[:, 0].tolist(), "original": original[:, 0].tolist(),
        "region": unit["regions"][0], "watermark": 4096,
    }

    def collectives(comm):
        for _ in range(MICRO_REPS):
            if comm.rank == 0:
                with span("mpi.allgather"):
                    comm.allgather(payload)
                with span("mpi.barrier"):
                    comm.barrier()
            else:
                comm.allgather(payload)
                comm.barrier()

    run_spmd(nranks, collectives)
    return {"table": table, "tails": tails}


def replay_storage(meter: Meter, unit: dict, per_part: dict, plan: dict, path: str) -> None:
    """Pre-compressed streams into declared slots, then back out."""
    span = meter.span
    table, tails = plan["table"], plan["tails"]
    vol = NativeVOL()
    f = EngineFile(path, "w")
    group = f.require_group("fields")
    dcpl = DatasetCreateProps(
        chunks=tuple(unit["shape"]),
        filters=((FILTER_SZ, {"bound": ERROR_BOUND, "mode": "abs", "radius": CODEC.radius}),),
    )
    for fi, name in enumerate(unit["names"]):
        ds = group.create_dataset(name, shape=unit["shape"], dtype=np.float32,
                                  layout="declared", dcpl=dcpl)
        ds.declare_partitions(
            offsets=table.offsets[fi].tolist(), reserved=table.reserved[fi].tolist(),
            regions=unit["regions"],
        )
        for r in range(len(unit["regions"])):
            stream = per_part[(name, r)]["stream"]
            with span("hdf5.partition_write", op=f"{name}#{r}"):
                left = vol.partition_write(ds, r, stream)
            if left:
                offset, _ = tails.tail(fi, r)
                vol.overflow_write(ds, r, stream[len(stream) - left:], offset)
    f.close()
    with EngineFile(path, "r") as f:
        for name in unit["names"]:
            ds = f[f"fields/{name}"]
            for r in range(len(unit["regions"])):
                with span("hdf5.partition_pread", op=f"{name}#{r}"):
                    stored = ds.read_partition(r)
                if stored != per_part[(name, r)]["stream"]:
                    meter.fail(f"replay {name}#{r}: stored stream differs from the codec's")


def write_direct(unit: dict, path: str) -> None:
    """The collective write without the facade: RealDriver over map_ranks
    on an engine file (as the facade itself drives it)."""
    driver = RealDriver("reorder", config=CFG, machine_name=MACHINE)
    codecs = dict.fromkeys(unit["names"], CODEC)
    f = EngineFile(path, "w", fapl=FileAccessProps(async_io=True, async_workers=CFG.async_workers))

    def rank_fn(comm):
        local = {n: unit["blocks"][n][comm.rank] for n in unit["names"]}
        return driver.run(
            comm, f, local, unit["regions"][comm.rank], unit["shape"], codecs, group="/"
        )

    try:
        driver.executor.map_ranks(len(unit["regions"]), rank_fn)
    finally:
        f.close()


def write_facade(unit: dict, path: str, compressed: bool = True):
    """The same blocks through ``repro.open``; returns the datasets (their
    ``stats`` carry predicted and actual sizes)."""
    out = []
    with repro.open(path, "w", nranks=len(unit["regions"])) as f:
        for name in unit["names"]:
            if compressed:
                ds = _compressed(f, name, unit["shape"])
                for region, block in zip(unit["regions"], unit["blocks"][name]):
                    ds[tuple(slice(a, b) for a, b in region)] = block
            else:  # raw storage needs row slabs: hand over the whole field
                whole = np.empty(unit["shape"], dtype=np.float32)
                for region, block in zip(unit["regions"], unit["blocks"][name]):
                    whole[tuple(slice(a, b) for a, b in region)] = block
                ds = f.create_dataset(name, unit["shape"], np.float32)
                ds[...] = whole
            out.append(ds)
    return out


def replay_api(meter: Meter, unit: dict, tag: str) -> list:
    """Facade against direct driver (paired), the raw baseline, and what a
    one-partition facade read costs beyond pread + decompress."""
    span = meter.span

    def direct(rep):
        with span("core.driver_write", op=rep):
            write_direct(unit, f"{tag}_direct.phd5")

    def facade(rep):
        with span("api.facade_write", op=rep):
            return write_facade(unit, f"{tag}_facade.phd5")

    for rep in range(PAIRS):  # back to back, taking turns to go first
        if rep % 2:
            datasets = facade(rep)
            direct(rep)
        else:
            direct(rep)
            datasets = facade(rep)
    for rep in range(2):
        with span("hdf5.raw_write", op=rep):
            write_facade(unit, f"{tag}_raw.phd5", compressed=False)
    for _ in range(5):
        with span("api.open_close"):
            repro.open(f"{tag}_empty.phd5", "w").close()
    cache = repro.cache.get_cache()
    parts = [(n, r) for n in unit["names"] for r in range(len(unit["regions"]))][:6]
    with repro.open(f"{tag}_facade.phd5", "r") as f, EngineFile(f"{tag}_facade.phd5", "r") as ef:
        for name, r in parts:
            cache.clear()
            key = tuple(slice(a, b) for a, b in unit["regions"][r])
            with span("api.partition_read", op=f"{name}#{r}"):
                f[name][key]
            with span("api.partition_read.pread", op=f"{name}#{r}"):
                stored = ef[f"/{name}"].read_partition(r)
            with span("api.partition_read.decompress", op=f"{name}#{r}"):
                CODEC.decompress(stored)
    return datasets


def replay_micro(meter: Meter, unit: dict, executor: str) -> None:
    """Fixed-cost pieces: rank fan-out, the cache's own operations, socket
    framing and the fair queue."""
    span = meter.span
    nranks = len(unit["regions"])
    ex = get_executor(executor)
    try:
        for _ in range(MICRO_REPS):
            with span("exec.map_ranks"):
                ex.map_ranks(nranks, lambda comm: None)
    finally:
        ex.close()

    cache = DecodedPartitionCache(64 * 2**20)
    mib = np.zeros(2**18, dtype=np.float32)
    for i in range(2 * MICRO_REPS):
        with span("cache.put"):
            cache.put((0, "/x", i, ""), mib.copy())
    for i in range(8 * MICRO_REPS):
        with span("cache.get"):
            cache.get((0, "/x", 2 * MICRO_REPS - 1 - i % 32, ""))

    block = unit["blocks"][unit["names"][0]][0]
    meta, body = pack_array(block)
    a, b = socket.socketpair()
    reader = threading.Thread(target=lambda: [recv_frame(b) for _ in range(MICRO_REPS)])
    reader.start()
    with span("serve.frames"):
        for _ in range(MICRO_REPS):
            send_frame(a, {"op": "write"} | meta, body)
        reader.join()
    a.close()
    b.close()

    queue = FairWorkQueue()
    for _ in range(40 * MICRO_REPS):
        with span("serve.queue_op"):
            queue.put("tenant", None)
            queue.get(timeout=0)


# ---------------------------------------------------------------------------
# operation pass: the workload's own operations under spans
# ---------------------------------------------------------------------------

def operation_pass(host) -> dict:
    """Run a fixed number of the host's own operations (after its warm-up)
    and return what only that pass knows."""
    n = OP_COUNTS[host.name]
    facts: dict = {}
    if host.name == M.SERVED:
        host.run(0.0, rounds=n)
        facts["server"] = host.server_stats
        with ServeClient(host.daemon.sock) as c:
            for _ in range(8 * MICRO_REPS):
                with host.meter.span("serve.ping"):
                    c.ping()
        facts["file"] = host.round_path(0)
        return facts
    host.warmup()
    host.meter.reset()
    if host.name == M.HOT:
        host.scan(0)
        queries = list(enumerate(host.trace[:TRACE_QUERIES]))
        facts["quarter"] = host.region_trace(host.budget, queries)
        facts["fit"] = host.region_trace(repro.cache.DEFAULT_MAX_BYTES, queries, suffix="_fit")
    else:
        for i in range(n):
            host.body(i)
    facts["file"] = host.file
    return facts


def file_facts(meter: Meter, path: str) -> dict:
    """Exact layout counters of a finished file, and what opening it and
    rewriting its footer cost."""
    for _ in range(5):
        with meter.span("hdf5.open"):
            f = EngineFile(path, "r")
        f.close()
    for _ in range(3):
        f = EngineFile(path, "r+")
        with meter.span("hdf5.close_footer"):
            f.close()
    size = os.path.getsize(path)
    overflow = reserved_unused = partitions = 0
    with EngineFile(path, "r") as f:
        footer = size - f.storage.end_of_data
        for _path, obj in f.root.visit():
            for i in range(getattr(obj, "n_partitions", 0)):
                entry = obj.partition(i)
                overflow += entry.overflow_nbytes
                partitions += entry.overflow_nbytes > 0
                reserved_unused += max(entry.reserved - entry.actual, 0)
    return {
        "footer_bytes": footer, "overflow_bytes": overflow,
        "overflow_partitions": partitions, "reserved_unused": reserved_unused,
    }


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def _size_errors(stats_lists) -> "list[float]":
    """|predicted - actual| / actual per (rank, field) of the write runs."""
    return [
        abs(s.predicted_nbytes[name] - s.actual_nbytes[name]) / s.actual_nbytes[name]
        for stats in stats_lists for s in stats for name in s.actual_nbytes
    ]


def traced_pass(name: str, seed: int, seconds: float, scale: str) -> dict:
    meter = Meter(name, keep_spans=True)
    host = WORKLOADS[name](seed, scale, ".", meter)
    host.setup()
    try:
        facts = operation_pass(host)
        layout = file_facts(meter, facts["file"])
        # Which collective writes of the operation to replay, and how many
        # times each kind occurs in it: a stream file is one cold step, one
        # mispredicted step and warm ones for the rest; all else is one write.
        if name == M.STREAM:
            jump, steps = host.p["jump"], host.p["steps"]
            plan_of_units = [(0, 1, True), (1, steps - 2, False), (jump, 1, False)]
        else:
            plan_of_units = [(0, 1, True)]
        units = []
        for step, count, cold in plan_of_units:
            before = {k: sum(v) for k, v in meter.seconds.items()}
            unit = host.unit(step)
            per_part = {
                (n, r): replay_partition(meter, unit["blocks"][n][r], f"{step}:{n}#{r}")
                for n in unit["names"] for r in range(len(unit["regions"]))
            }
            plan = replay_plan(meter, unit, per_part)
            replay_storage(meter, unit, per_part, plan, f"replay_{step}.phd5")
            units.append({
                "unit": unit, "parts": per_part, "count": count, "cold": cold,
                "seconds": {
                    k: sum(v) - before.get(k, 0.0) for k, v in meter.seconds.items()
                },
            })
        unit0 = units[0]["unit"]
        datasets = replay_api(meter, unit0, "replay")
        replay_micro(meter, unit0, "thread" if name == M.SERVED else CFG.executor)
    finally:
        host.teardown()

    values = layer_values(meter, host, facts, layout, units, datasets)
    ledger = build_ledger(meter, host, units, values)
    values.update(ledger["totals"])
    values["trace.spans"] = len(meter.spans)
    return {
        "metrics": {k: float(values[k]) for k in M.LAYER_NAMES},
        "ledger": ledger["rows"],
        "attempted": meter.attempted,
        "failed": meter.failed,
        "first_error": meter.first_error,
        "counters": host.counters() | layout,
        "samples": host.samples(),
        "inputs_sha256": host.input_digest,
        "spans": meter.spans,
    }


def layer_values(meter: Meter, host, facts, layout, units, datasets) -> dict:
    """Every per-layer metric from the spans and counters of the pass."""
    m = meter
    parts = [p for u in units for p in u["parts"].values()]
    nbytes = sum(p["nbytes"] for p in parts)
    stored = sum(len(p["stream"]) for p in parts)

    def ms(span: str) -> float:
        return 1e3 * m.median(span)

    def us(span: str) -> float:
        return 1e6 * m.median(span)

    def rate(span: str, total: int = nbytes) -> float:
        """MB/s over all the replayed partitions: bytes / busy seconds."""
        return total / MB / m.total(span)

    def other_ms(whole: str, stages: "tuple[str, ...]") -> float:
        """Median over partitions of (whole call - its replayed stages)."""
        rest = [
            w - sum(m.seconds[s][i] for s in stages)
            for i, w in enumerate(m.seconds[whole])
        ]
        return 1e3 * statistics.median(rest)

    v = {
        "compression.quantize_mbps": rate("compression.quantize"),
        "compression.lorenzo_fwd_mbps": rate("compression.lorenzo_fwd"),
        "compression.huffman_encode_mbps": rate("compression.huffman_encode"),
        "compression.lossless_wrap_mbps": rate("compression.lossless_wrap"),
        "compression.sz_compress_mbps": rate("compression.sz_compress"),
        "compression.huffman_build_ms": ms("compression.huffman_build"),
        "compression.sz_compress_call_ms": ms("compression.sz_compress"),
        "compression.sz_encode_other_ms": other_ms("compression.sz_compress", ENCODE),
        "compression.ratio": nbytes / stored,
        "compression.lossless_unwrap_mbps": rate("compression.lossless_unwrap"),
        "compression.huffman_decode_mbps": rate("compression.huffman_decode"),
        "compression.lorenzo_inv_mbps": rate("compression.lorenzo_inv"),
        "compression.dequantize_mbps": rate("compression.dequantize"),
        "compression.sz_decompress_mbps": rate("compression.sz_decompress"),
        "compression.sz_decode_other_ms": other_ms("compression.sz_decompress", DECODE),
        "compression.decode_over_encode":
            m.total("compression.sz_decompress") / m.total("compression.sz_compress"),
        "modeling.sample_stats_ms": ms("modeling.sample_stats"),
        "modeling.ratio_predict_ms": ms("modeling.ratio_predict"),
        "core.predict_sizes_ms": ms("core.predict_sizes"),
        "core.plan_table_us": us("core.plan_table"),
        "core.field_order_us": us("core.field_order"),
        "core.overflow_plan_us": us("core.overflow_plan"),
        "core.overflow_fraction": layout["overflow_bytes"] / host.user_bytes,
        "core.overflow_partitions": layout["overflow_partitions"],
        "core.reserved_waste_fraction": layout["reserved_unused"] / host.user_bytes,
        "hdf5.partition_write_mbps": rate("hdf5.partition_write", stored),
        "hdf5.partition_pread_mbps": rate("hdf5.partition_pread", stored),
        "hdf5.close_footer_ms": ms("hdf5.close_footer"),
        "hdf5.footer_bytes": layout["footer_bytes"],
        "hdf5.open_ms": ms("hdf5.open"),
        "mpi.allgather_us": us("mpi.allgather"),
        "mpi.barrier_us": us("mpi.barrier"),
        "exec.map_ranks_ms": ms("exec.map_ranks"),
        "api.open_close_ms": ms("api.open_close"),
        "cache.get_us": us("cache.get"),
        "cache.put_us": us("cache.put"),
        "serve.queue_op_us": us("serve.queue_op"),
    }
    unit0 = units[0]["unit"]
    unit_bytes = sum(b.nbytes for blocks in unit0["blocks"].values() for b in blocks)
    v["core.driver_write_mbps"] = unit_bytes / MB / m.median("core.driver_write")
    v["hdf5.raw_write_mbps"] = unit_bytes / MB / m.median("hdf5.raw_write")
    v["api.write_overhead_ms"] = 1e3 * statistics.median(
        f - d for f, d in zip(m.seconds["api.facade_write"], m.seconds["core.driver_write"])
    )
    v["api.read_overhead_ms"] = 1e3 * statistics.median(
        whole - pread - decode for whole, pread, decode in zip(
            m.seconds["api.partition_read"], m.seconds["api.partition_read.pread"],
            m.seconds["api.partition_read.decompress"],
        )
    )
    block = unit0["blocks"][unit0["names"][0]][0]
    v["serve.frame_mbps"] = MICRO_REPS * block.nbytes / MB / m.total("serve.frames")

    # Size-prediction error of the runs that wrote the workload's own data:
    # the streamed steps where there are any, else the (byte-identical)
    # direct write of the same blocks.
    if host.name == M.STREAM:
        errors = _size_errors([r.stats for r in host.step_results])
    else:
        errors = _size_errors([datasets[0].stats])
    v["modeling.size_err_p50"] = statistics.median(errors)
    v["modeling.size_err_max"] = max(errors)

    # Counters only one workload produces; 0 = the layer did no work here.
    for key in ("cache.hit_rate", "cache.evictions", "cache.partitions_decoded",
                "cache.bytes_decoded", "cache.hit_read_p50_us", "cache.fit_hit_rate",
                "cache.fit_reads_per_s", "serve.ping_rtt_us", "serve.datasets_per_flush",
                "serve.ops_executed", "serve.queue_rejected", "serve.commit_over_direct",
                "serve.ack_p50_ms", "serve.ack_p95_ms"):
        v[key] = 0.0
    if host.name == M.HOT:
        stats, reads, decoded = facts["quarter"]
        hits = [s for s, n in zip(m.seconds["region_read"], decoded) if n == 0]
        fit_stats, _, _ = facts["fit"]
        v.update({
            "cache.hit_rate": stats.hit_rate,
            "cache.evictions": stats.evictions,
            "cache.partitions_decoded": reads["partitions_decoded"],
            "cache.bytes_decoded": reads["bytes_decoded"],
            "cache.hit_read_p50_us": 1e6 * statistics.median(hits),
            "cache.fit_hit_rate": fit_stats.hit_rate,
            "cache.fit_reads_per_s":
                m.count("region_read_fit") / m.total("region_read_fit"),
        })
    if host.name == M.SERVED:
        server = facts["server"]
        v.update({
            "serve.ping_rtt_us": us("serve.ping"),
            "serve.datasets_per_flush":
                server["files"]["datasets_landed"] / server["files"]["flushes"],
            "serve.ops_executed": server["ops_executed"],
            "serve.queue_rejected": server["queue"]["rejected"],
            "serve.commit_over_direct": m.median("commit") / m.median("api.facade_write"),
            "serve.ack_p50_ms": ms("assign"),
            "serve.ack_p95_ms": 1e3 * m.pct("assign", 95),
        })
    return v


#: the host's operation span that is one write / one read of the ledger.
WRITE_OP = {M.SNAP: "write_file", M.STREAM: "write_file", M.HOT: None, M.SERVED: "round"}
READ_OP = "read_file"

ENCODE = ("compression.quantize", "compression.lorenzo_fwd",
          "compression.huffman_encode", "compression.lossless_wrap")
DECODE = ("compression.lossless_unwrap", "compression.huffman_decode",
          "compression.lorenzo_inv", "compression.dequantize")

#: layer metric -> (side, stage) whose seconds give its share in the ledger.
STAGE_OF = {
    "compression.quantize_mbps": ("write", "compression.quantize"),
    "compression.lorenzo_fwd_mbps": ("write", "compression.lorenzo_fwd"),
    "compression.huffman_encode_mbps": ("write", "compression.huffman_encode"),
    "compression.lossless_wrap_mbps": ("write", "compression.lossless_wrap"),
    "compression.sz_encode_other_ms": ("write", "compression.sz_encode_other"),
    "modeling.ratio_predict_ms": ("write", "modeling.ratio_predict"),
    "core.plan_table_us": ("write", "core.plan_table"),
    "core.field_order_us": ("write", "core.field_order"),
    "core.overflow_plan_us": ("write", "core.overflow_plan"),
    "mpi.allgather_us": ("write", "mpi.allgather"),
    "mpi.barrier_us": ("write", "mpi.barrier"),
    "exec.map_ranks_ms": ("write", "exec.map_ranks"),
    "hdf5.partition_write_mbps": ("write", "hdf5.partition_write"),
    "hdf5.close_footer_ms": ("write", "hdf5.close_footer"),
    "api.open_close_ms": ("write", "api.open_close"),
    "hdf5.open_ms": ("read", "hdf5.open"),
    "hdf5.partition_pread_mbps": ("read", "hdf5.partition_pread"),
    "compression.lossless_unwrap_mbps": ("read", "compression.lossless_unwrap"),
    "compression.huffman_decode_mbps": ("read", "compression.huffman_decode"),
    "compression.lorenzo_inv_mbps": ("read", "compression.lorenzo_inv"),
    "compression.dequantize_mbps": ("read", "compression.dequantize"),
    "compression.sz_decode_other_ms": ("read", "compression.sz_decode_other"),
}


def _residual(seconds: dict, whole: str, stages: "tuple[str, ...]") -> float:
    """What a whole call took beyond its separately replayed stages."""
    return seconds[whole] - sum(seconds[s] for s in stages)


def stage_seconds(meter: Meter, units: list) -> dict:
    """Seconds each stage is busy in ONE operation of the workload.

    Per-partition stages: the replayed unit's total, times how many of the
    operation's collective writes that unit stands for (a stream file is
    10 writes, replayed as three).  Per-write stages: their median, times
    the number of writes; the sampling model and the Algorithm-1 order run
    in cold writes only (warm-started steps reuse the previous step's).
    """
    med = meter.median
    writes = sum(u["count"] for u in units)
    cold = sum(u["count"] for u in units if u["cold"])
    write = {s: sum(u["count"] * u["seconds"][s] for u in units) for s in ENCODE}
    write["compression.sz_encode_other"] = sum(
        u["count"] * _residual(u["seconds"], "compression.sz_compress", ENCODE) for u in units
    )
    write["modeling.ratio_predict"] = sum(
        u["count"] * u["seconds"]["modeling.ratio_predict"] for u in units if u["cold"]
    )
    write["hdf5.partition_write"] = sum(
        u["count"] * u["seconds"]["hdf5.partition_write"] for u in units
    )
    write["core.plan_table"] = writes * med("core.plan_table")
    write["core.field_order"] = cold * med("core.field_order")
    write["core.overflow_plan"] = writes * med("core.overflow_plan")
    write["mpi.allgather"] = 2 * writes * med("mpi.allgather")  # sizes before, actuals after
    write["mpi.barrier"] = 2 * writes * med("mpi.barrier")      # datasets created, run done
    write["exec.map_ranks"] = writes * med("exec.map_ranks")
    write["hdf5.close_footer"] = med("hdf5.close_footer")
    write["api.open_close"] = med("api.open_close")
    # One read operation decodes as many partitions as were replayed.
    read = {s: sum(u["seconds"][s] for u in units) for s in DECODE + ("hdf5.partition_pread",)}
    read["compression.sz_decode_other"] = sum(
        _residual(u["seconds"], "compression.sz_decompress", DECODE) for u in units
    )
    read["hdf5.open"] = med("hdf5.open")
    return {"write": write, "read": read}


def build_ledger(meter: Meter, host, units: list, values: dict) -> dict:
    """One row per layer metric - value, unit, share of its side's stage
    sum, the end-to-end metric it should move - and, last, the rows for
    what the stages do not explain (signed)."""
    stages = stage_seconds(meter, units)
    write_op = WRITE_OP[host.name]
    walls = {
        "write": meter.median(write_op) if write_op else 0.0,
        "read": meter.median(READ_OP),
    }
    if write_op is None:  # no write operation here: nothing to attribute
        stages["write"] = {k: 0.0 for k in stages["write"]}
    sums = {side: sum(stages[side].values()) for side in stages}
    rows = []
    for name, unit, _better, moves in M.PER_LAYER:
        if name.startswith("trace."):
            continue
        side, stage = STAGE_OF.get(name, (None, None))
        share = stages[side][stage] / sums[side] if side and sums[side] else None
        rows.append({
            "metric": name, "value": float(values[name]), "unit": unit,
            "side": side, "share": share, "moves": moves,
        })
    totals = {}
    for side in ("write", "read"):
        totals[f"trace.{side}_wall_s"] = walls[side]
        totals[f"trace.{side}_stage_sum_s"] = sums[side]
        rest = walls[side] - sums[side]
        totals[f"trace.{side}_unattributed_s"] = rest
        rows.append({
            "metric": f"trace.{side}_unattributed_s", "value": rest, "unit": "s", "side": side,
            "share": rest / walls[side] if walls[side] else None,
            "moves": f"wall {walls[side]:.4f} s - stage sum {sums[side]:.4f} s (share of wall)",
        })
    return {"rows": rows, "totals": totals}
