#!/usr/bin/env python
"""Quickstart: compress a field, predict its size, write it via repro.open.

Walks the three layers of the library in ~60 lines:

1. the SZ-style error-bounded compressor;
2. the predictive models (size prediction *before* compressing);
3. the h5py-style facade: ``repro.open()`` + ``ds[...] = arr`` runs the
   full predictive pipeline — predicted offsets, extra space, overlapped
   async writes, overflow repair — on 4 thread ranks against a shared
   PHD5 file, then walks the file h5py-style and reads every field back
   within its error bound, and prints the file's ``repro inspect summary``.

Run:  python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.compression import evaluate_codec
from repro.data import NyxGenerator
from repro.tools.inspect import main as repro_inspect


def main() -> None:
    shape = (48, 48, 48)
    gen = NyxGenerator(shape, seed=7)
    data = gen.field("temperature")

    # --- 1. error-bounded lossy compression --------------------------------
    codec = repro.SZCompressor(bound=gen.error_bound("temperature"), mode="abs")
    result = evaluate_codec(codec, data)
    print(f"[1] SZ compression: ratio={result.ratio:.1f}x  "
          f"bit-rate={result.bit_rate:.2f} bits/value  "
          f"max error={result.max_error:.3g} (bound {codec.max_error():.3g})")

    # --- 2. size prediction without compressing ----------------------------
    from repro.modeling import RatioQualityModel

    prediction = RatioQualityModel(codec).predict(data)
    actual = len(codec.compress(data))
    print(f"[2] predicted size={prediction.predicted_nbytes}B  actual={actual}B  "
          f"error={abs(prediction.predicted_nbytes - actual) / actual:.1%}")

    # --- 3. transparent predictive writes through the facade ---------------
    names = list(gen.field_names)
    path = os.path.join(tempfile.mkdtemp(), "snapshot.phd5")
    with repro.open(path, "w", nranks=4) as f:
        for n in names:
            ds = f.create_dataset(f"fields/{n}", shape, np.float32,
                                  error_bound=gen.error_bound(n))
            ds[...] = gen.field(n)  # predict -> plan -> compress -> write
        f.flush()  # one collective multi-field run (also implicit on close)
        stats = f["fields/" + names[0]].stats
        print(f"[3] wrote {len(names)} fields through the predictive pipeline")
        for s in stats:
            print(f"    rank {s.rank}: order={s.order[:3]}...  "
                  f"compressed={s.total_actual}B  overflow={s.total_overflow}B")
        report = f.verify()  # certify against the staged reference data
        assert report.passed, report.violations
    print(f"[3] file size: {os.path.getsize(path)} bytes")

    verified = []

    def check(name, obj):  # h5py-style walk: groups and datasets alike
        if not isinstance(obj, repro.Dataset):
            return None
        n = name.rsplit("/", 1)[-1]
        assert obj.shape == shape and obj.dtype == np.float32
        assert obj.attrs["repro:strategy"] == "reorder"
        bound = obj.declared_bound  # the bound the file itself promises
        err = float(np.max(np.abs(obj[...].astype(np.float64) - gen.field(n))))
        assert err <= bound * (1 + 1e-6)
        verified.append(name)
        return None

    with repro.open(path) as fr:
        fr.visititems(check)
        assert len(verified) == len(names)
        block = fr[f"fields/{names[0]}"][8:24, :, :]  # partition-aware read
        print(f"[3] verified: all {len(names)} fields read back within their "
              f"error bounds (partial read {block.shape} too)\n")
    repro_inspect(["summary", path])  # what `repro inspect summary` prints


if __name__ == "__main__":
    main()
