"""The benchmark's metric tables — the single place names, units,
directions and bounds are written.  ``BENCHMARK.json`` must agree with
them (``test_perfbench.py`` checks it), and the printed tables, the
README and the ledger are generated from them.

End-to-end rows: ``(name, unit, better, bound, pays)``.  Whatever is a
wall-clock time or the process's peak memory has the largest bound the
driver allows, 0.25: the shared host this runs on slows by a quarter to a
half for minutes at a time, and a set of ten runs that meets such a spell
spreads by as much whatever is measured (README.md, "Spread").
``stored_fraction`` and ``ok_fraction`` are exact for a seed and keep the
issue's bounds.  The names are
roles, so every workload measures every metric in its own loop:
``write`` is the workload's write of one file, ``read`` its cold read,
``op`` its small repeated user operation (``ROLES`` says which).
MB = 10^6 bytes of user float data.

Per-layer rows: ``(name, unit, better, moves)`` where ``moves`` is the
end-to-end metric and workload the layer metric is expected to move.
"""

from __future__ import annotations

W = ("snapshot_large", "stream_small", "hotspot_read", "served_shared")
SNAP, STREAM, HOT, SERVED = W

#: what the role-named metrics time on each workload.
ROLES = {
    SNAP: {
        "write": "dump: open w -> create 5 datasets -> assign two blocks each -> close",
        "read": "restart: cache cleared, open r -> read every field -> close",
        "op": "the restart read of one field",
    },
    STREAM: {
        "write": "one stream file: open w -> create 8 datasets -> 10 append_step -> close",
        "read": "cache cleared, open r -> read steps 0, 5, 9 of every field -> close",
        "op": "one append_step (the simulation's stall)",
    },
    HOT: {
        "write": "a rewrite of the analysed file: open w -> create 4 datasets -> assign four "
                 "blocks each -> close (a fifth of the loop's time; the traced pass never writes)",
        "read": "one field of a cold full scan (cache cleared, open r -> every field -> close)",
        "op": "one query of the region trace under the quarter-size cache: five reads, four "
              "in the hot set and a cold box (nine queries of ten) or a z-plane (one)",
    },
    SERVED: {
        "write": "one round through the daemon: both tenants open -> create -> assign "
                 "halves -> flush -> close",
        "read": "every 5th round's file read back cold from the local disk",
        "op": "one flush() until the coalesced collective run has landed; every 10th round "
              "is a checkpoint of twice the datasets, and its commit is the slow case",
    },
}

END_TO_END = [
    ("write_mbps", "MB/s", "higher", 0.25,
     "user MB of one written file over the median wall of writing it"),
    ("read_mbps", "MB/s", "higher", 0.25,
     "user MB of one cold read over its median wall, decoded-partition cache cleared"),
    ("stored_fraction", "B/B", "lower", 0.005,
     "file bytes per byte of user data: the paper's storage cost (exact for a seed)"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "the workload's small repeated operation, median wall"),
    ("op_p95_ms", "ms", "lower", 0.25,
     "the same operation's slow case: the dearest field, a cold or mispredicted step, "
     "a query that crosses partitions, a late commit"),
    ("setup_s", "s", "lower", 0.25,
     "imports + input generation + set-up file + daemon start and first ping (median of 3)"),
    ("peak_rss_mb", "MB", "lower", 0.25,
     "ru_maxrss of the worker child (of the daemon child on served_shared)"),
    ("ok_fraction", "ok/op", "higher", 0.001,
     "operations that neither raised, were refused, nor read back outside bound + 1/2 ulp"),
]

E2E_NAMES = tuple(row[0] for row in END_TO_END)

PER_LAYER = [
    # compression, encode
    ("compression.quantize_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    ("compression.lorenzo_fwd_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    ("compression.huffman_encode_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    ("compression.lossless_wrap_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    ("compression.sz_compress_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    ("compression.huffman_build_ms", "ms", "lower",
     "op_p50_ms @ stream_small, served_shared"),
    ("compression.sz_compress_call_ms", "ms", "lower",
     "op_p50_ms @ stream_small, served_shared"),
    ("compression.sz_encode_other_ms", "ms", "lower",
     "op_p50_ms @ stream_small, served_shared"),
    ("compression.ratio", "B/B", "higher", "stored_fraction everywhere"),
    # compression, decode
    ("compression.lossless_unwrap_mbps", "MB/s", "higher",
     "read_mbps @ snapshot_large, hotspot_read"),
    ("compression.huffman_decode_mbps", "MB/s", "higher",
     "read_mbps @ snapshot_large, hotspot_read; op_p95_ms @ hotspot_read"),
    ("compression.lorenzo_inv_mbps", "MB/s", "higher",
     "read_mbps @ snapshot_large, hotspot_read"),
    ("compression.dequantize_mbps", "MB/s", "higher",
     "read_mbps @ snapshot_large, hotspot_read"),
    ("compression.sz_decompress_mbps", "MB/s", "higher",
     "read_mbps @ snapshot_large, hotspot_read; op_p95_ms @ hotspot_read"),
    ("compression.sz_decode_other_ms", "ms", "lower", "read_mbps @ stream_small"),
    ("compression.decode_over_encode", "s/s", "lower",
     "read_mbps vs write_mbps @ snapshot_large (base: compress seconds)"),
    # modeling
    ("modeling.sample_stats_ms", "ms", "lower",
     "write_mbps @ snapshot_large (step 0 only @ stream_small)"),
    ("modeling.ratio_predict_ms", "ms", "lower",
     "write_mbps @ snapshot_large (step 0 only @ stream_small)"),
    ("modeling.size_err_p50", "B/B", "lower", "stored_fraction via overflow"),
    ("modeling.size_err_max", "B/B", "lower", "stored_fraction via overflow"),
    # core
    ("core.predict_sizes_ms", "ms", "lower", "op_p50_ms @ stream_small"),
    ("core.plan_table_us", "us", "lower", "op_p50_ms @ stream_small"),
    ("core.field_order_us", "us", "lower", "op_p50_ms @ stream_small"),
    ("core.overflow_plan_us", "us", "lower", "op_p50_ms @ stream_small"),
    ("core.overflow_fraction", "B/B", "lower", "stored_fraction; op_p95_ms @ stream_small"),
    ("core.overflow_partitions", "count", "lower", "stored_fraction; op_p95_ms @ stream_small"),
    ("core.reserved_waste_fraction", "B/B", "lower", "stored_fraction"),
    ("core.driver_write_mbps", "MB/s", "higher", "write_mbps @ snapshot_large"),
    # hdf5
    ("hdf5.partition_write_mbps", "MB/s", "higher",
     "small share of write_mbps (compressed MB/s; page cache, not a device)"),
    ("hdf5.partition_pread_mbps", "MB/s", "higher",
     "small share of read_mbps (compressed MB/s; page cache, not a device)"),
    ("hdf5.raw_write_mbps", "MB/s", "higher",
     "the non-compression baseline through the facade (page cache, not a device)"),
    ("hdf5.close_footer_ms", "ms", "lower",
     "op_p95_ms, read_mbps @ stream_small; op_p50_ms @ served_shared"),
    ("hdf5.footer_bytes", "B", "lower", "read_mbps @ stream_small (footer grows per step)"),
    ("hdf5.open_ms", "ms", "lower",
     "read_mbps @ stream_small; op_p95_ms @ hotspot_read"),
    # mpi / exec
    ("mpi.allgather_us", "us", "lower",
     "op_p50_ms @ stream_small, served_shared"),
    ("mpi.barrier_us", "us", "lower", "op_p50_ms @ stream_small, served_shared"),
    ("exec.map_ranks_ms", "ms", "lower",
     "op_p50_ms @ stream_small, served_shared"),
    # api
    ("api.write_overhead_ms", "ms", "lower", "write_mbps @ stream_small"),
    ("api.read_overhead_ms", "ms", "lower", "op_p95_ms @ hotspot_read"),
    ("api.open_close_ms", "ms", "lower", "write_mbps @ stream_small"),
    # cache
    ("cache.hit_rate", "hit/lookup", "higher", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.evictions", "count", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.partitions_decoded", "count", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.bytes_decoded", "B", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.hit_read_p50_us", "us", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.get_us", "us", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.put_us", "us", "lower", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.fit_hit_rate", "hit/lookup", "higher", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    ("cache.fit_reads_per_s", "1/s", "higher", "op_p50_ms, op_p95_ms @ hotspot_read only (the misses a query pays)"),
    # serve
    ("serve.ping_rtt_us", "us", "lower", "serve.ack_p50_ms; write_mbps @ served_shared"),
    ("serve.frame_mbps", "MB/s", "higher", "serve.ack_p50_ms; write_mbps @ served_shared"),
    ("serve.queue_op_us", "us", "lower", "serve.ack_p50_ms; write_mbps @ served_shared"),
    ("serve.datasets_per_flush", "ds/flush", "higher",
     "op_p50_ms, write_mbps @ served_shared"),
    ("serve.ops_executed", "count", "lower", "op_p50_ms, write_mbps @ served_shared"),
    ("serve.queue_rejected", "count", "lower",
     "serve.ack_p50_ms; write_mbps @ served_shared (a refused request is retried)"),
    ("serve.ack_p50_ms", "ms", "lower",
     "client-seen latency of one block assignment (8 a round): write_mbps @ served_shared"),
    ("serve.ack_p95_ms", "ms", "lower",
     "a late ack (it waited for the other tenant's frame): scheduling noise, +-50 % between runs"),
    ("serve.commit_over_direct", "s/s", "lower",
     "op_p50_ms @ served_shared (base: direct facade write)"),
    # trace
    ("trace.write_wall_s", "s", "lower", "the traced write operations' wall"),
    ("trace.write_stage_sum_s", "s", "lower", "sum of the write stages' busy time"),
    ("trace.write_unattributed_s", "s", "lower",
     "wall - stage sum (signed; orchestration shows here)"),
    ("trace.read_wall_s", "s", "lower", "the traced read operations' wall"),
    ("trace.read_stage_sum_s", "s", "lower", "sum of the read stages' busy time"),
    ("trace.read_unattributed_s", "s", "lower", "wall - stage sum (signed)"),
    ("trace.spans", "count", "lower", "spans recorded by the traced pass"),
]

LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
