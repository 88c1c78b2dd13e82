#!/usr/bin/env python
"""Read-side scale-out: partial reads, the decoded-partition cache, and
concurrent readers.

Walks the read path end to end:

1. write one multi-rank predictive snapshot through ``repro.open``;
2. replay an 80/20 hotspot access trace (80% of reads on 20% of the
   address space — checkpoint-inspection skew) and watch the decoded-
   partition LRU absorb the hot set;
3. size / disable the cache with ``repro.cache.configure``;
4. fan the partition decode out over the thread executor and read the
   same file from several concurrent reader threads, verifying every
   route returns identical bytes.

Run:  python examples/hotspot_reads.py
"""

import os
import tempfile
import threading
import time

import numpy as np

import repro
from repro.cache import DEFAULT_MAX_BYTES, configure, get_cache
from repro.data import NyxGenerator

SHAPE = (48, 48, 48)
BOUND = 1e-3


def main() -> None:
    gen = NyxGenerator(SHAPE, seed=11)
    data = gen.field("baryon_density")
    path = os.path.join(tempfile.mkdtemp(), "snapshot.phd5")
    with repro.open(path, "w", nranks=8) as f:
        f.create_dataset("fields/density", SHAPE, np.float32,
                         error_bound=BOUND, data=data)

    # --- 1. partial reads decode only the partitions they touch ------------
    get_cache().clear()
    with repro.open(path) as f:
        ds = f["fields/density"]
        corner = ds[0:12, 0:12, 0:12]        # decodes the touched octant(s)
        touched = f.read_stats.partitions_decoded
        full = ds[...]                        # decodes only the remainder
        print(f"[1] corner read decoded {touched}/8 partitions; "
              f"full read reused them ({f.read_stats.cache_hits} cache hits)")
        assert np.abs(corner - data[0:12, 0:12, 0:12]).max() <= BOUND * (1 + 1e-6)

    # --- 2. the 80/20 hotspot trace against the decoded-partition LRU ------
    get_cache().clear()
    rng = np.random.default_rng(3)
    perm = rng.permutation(SHAPE[0])          # a random 20% of the slabs is hot
    nhot = round(0.2 * SHAPE[0])
    hot, cold = perm[:nhot], perm[nhot:]
    trace = np.where(rng.random(500) < 0.8,   # and takes 80% of the accesses
                     hot[rng.integers(0, hot.size, 500)],
                     cold[rng.integers(0, cold.size, 500)]).tolist()
    with repro.open(path) as f:
        ds = f["fields/density"]
        latencies = []
        for addr in trace:
            t0 = time.perf_counter()
            ds[addr:addr + 1]                 # one slab per access
            latencies.append(time.perf_counter() - t0)
        latencies.sort()
        stats = f.read_stats
        print(f"[2] hotspot 80/20, {len(trace)} reads: "
              f"cache hit-rate={stats.hit_rate:.3f}  "
              f"p50={latencies[len(latencies) // 2] * 1e3:.3f}ms  "
              f"p99={latencies[int(0.99 * (len(latencies) - 1))] * 1e3:.3f}ms")

    # --- 3. sizing and disabling the cache ---------------------------------
    configure(0)                              # 0 bytes: every read decodes
    get_cache().clear()
    with repro.open(path) as f:
        f["fields/density"][...]
        f["fields/density"][...]
        print(f"[3] cache disabled: {f.read_stats.partitions_decoded} decodes, "
              f"{f.read_stats.cache_hits} hits "
              f"(REPRO_CACHE_BYTES=0 does the same from the environment)")
    configure(DEFAULT_MAX_BYTES)              # restore the 256 MiB default

    # --- 4. parallel decode and concurrent readers -------------------------
    get_cache().clear()
    with repro.open(path, executor="thread") as f:
        fanned = f["fields/density"][...]     # partitions decoded via map_cells
    assert np.array_equal(fanned, full)

    results = {}

    def reader(tid: int) -> None:
        with repro.open(path) as f:           # repro.open is reader-safe
            results[tid] = f["fields/density"][...]

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(np.array_equal(r, full) for r in results.values())
    print(f"[4] thread-executor decode and {len(threads)} concurrent readers "
          "returned byte-identical arrays")


if __name__ == "__main__":
    main()
