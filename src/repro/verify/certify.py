"""Round-trip error-bound certification (pillar 1 of the verify engine).

The paper's correctness contract is point-wise: every value read back from
a predictively written file must sit within the configured absolute error
bound of the original — through the reserved slot and through the overflow
tail.  :func:`certify` makes that contract checkable: it reads every field
of a written file back through the one read route every reader takes
(:meth:`~repro.hdf5.dataset.Dataset.read`, a single batched decode per
dataset), compares against the reference data, and issues one
:class:`FieldCertificate` per field with the bound, the measured maximum
error, PSNR/NRMSE distortion statistics, and the overflow traffic the read
path had to reassemble.

The bound itself is discovered from the *file*: declared datasets
record their SZ filter options (bound + mode) in the footer, so a
certificate asserts the file against its own declared promise, not against
whatever the caller believes was configured.  Relative-mode bounds are
resolved per partition from the self-describing stream headers.

:func:`certify_codecs` is the codec-level counterpart: a deterministic
compress→decompress sweep over SZ's bound modes × lossless backends and the
raw lossless backends.  Every certificate asserts either a bound or exact
storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.compression.lossless import lossless_compress, lossless_decompress
from repro.compression.sz import SZCompressor, parse_stream_info
from repro.errors import ReproError, VerificationError
from repro.hdf5.dataset import Dataset
from repro.hdf5.file import File
from repro.utils.stats import (
    max_abs_error,
    mse,
    psnr,
    value_range,
    violates_bound,
)

#: Relative slack on bound assertions (float64 rounding of the comparison
#: itself, same tolerance the metrics oracle uses).  Bound checks go
#: through :func:`repro.utils.stats.violates_bound`, which additionally
#: allows half a storage-dtype ulp *per element* — one formula, shared
#: with the metrics oracle.
BOUND_RTOL = 1e-12


@dataclass(frozen=True)
class FieldCertificate:
    """Outcome of certifying one field of a written file."""

    #: dataset path inside the file, e.g. ``fields/f00`` or ``steps/0003/f01``.
    field: str
    #: certification mode: ``abs`` (point-wise bound) or ``exact`` (bitwise).
    mode: str
    #: the asserted absolute bound (0.0 for exact).
    bound: float
    max_error: float
    psnr_db: float
    nrmse: float
    n_partitions: int
    overflowed_partitions: int
    overflow_nbytes: int
    compressed_nbytes: int
    logical_nbytes: int
    passed: bool
    #: read-back failure (corrupt stream, missing partition, ...), if any.
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "mode": self.mode,
            "bound": self.bound,
            "max_error": self.max_error,
            "psnr_db": self.psnr_db,
            "nrmse": self.nrmse,
            "n_partitions": self.n_partitions,
            "overflowed_partitions": self.overflowed_partitions,
            "overflow_nbytes": self.overflow_nbytes,
            "compressed_nbytes": self.compressed_nbytes,
            "logical_nbytes": self.logical_nbytes,
            "passed": self.passed,
            "error": self.error,
        }


@dataclass
class CertificationReport:
    """All field certificates of one certified file (or file group)."""

    path: str
    certificates: list[FieldCertificate] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every certificate passed."""
        return all(c.passed for c in self.certificates)

    @property
    def violations(self) -> list[FieldCertificate]:
        """The failing certificates."""
        return [c for c in self.certificates if not c.passed]

    @property
    def total_overflow_nbytes(self) -> int:
        """Overflow-tail bytes the certified read paths reassembled."""
        return sum(c.overflow_nbytes for c in self.certificates)

    def raise_on_failure(self) -> None:
        """Raise :class:`VerificationError` describing every violation."""
        bad = self.violations
        if bad:
            lines = [
                f"{c.field}: max_error={c.max_error:.3e} bound={c.bound:.3e}"
                + (f" ({c.error})" if c.error else "")
                for c in bad
            ]
            raise VerificationError(
                f"certification of {self.path!r} failed for "
                f"{len(bad)}/{len(self.certificates)} fields: " + "; ".join(lines)
            )

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "passed": self.passed,
            "total_overflow_nbytes": self.total_overflow_nbytes,
            "fields": [c.to_json() for c in self.certificates],
        }


def _nrmse(reference: np.ndarray, recon: np.ndarray) -> float:
    """Root-mean-square error normalized by the reference value range."""
    err = math.sqrt(mse(reference, recon))
    rng = value_range(reference)
    if rng == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / rng


def declared_bound(dataset: Dataset) -> tuple[str, float]:
    """The (mode, bound) promise a dataset's own metadata makes.

    SZ-filtered datasets promise their configured bound; ``abs`` mode is a
    direct absolute bound, ``rel`` resolves per partition from the stream
    headers (the caller passes the streams).  Filterless datasets promise
    exact storage.
    """
    options = dataset.filters.sz_options
    if options is None:
        return "exact", 0.0
    return str(options.get("mode", "abs")), float(options.get("bound", float("nan")))


def _effective_abs_bound(dataset: Dataset, mode: str, bound: float) -> float:
    """Resolve the absolute bound a stream actually promises.

    ``rel`` bounds are value-range relative; every partition's stream
    header records the absolute bound the quantizer resolved, so the
    dataset-level promise is the loosest (max) of its partitions.
    """
    if mode != "rel":
        return bound
    resolved = 0.0
    for index in range(dataset.n_partitions):
        info = parse_stream_info(dataset.read_partition(index))
        resolved = max(resolved, info.abs_bound)
    return resolved


def certify_dataset(
    dataset: Dataset,
    reference: np.ndarray,
    label: str | None = None,
) -> FieldCertificate:
    """Certify one dataset's read-back against its reference array."""
    name = label or dataset.path.lstrip("/")
    reference = np.asarray(reference)
    n_parts = dataset.n_partitions if dataset.layout == "declared" else 0
    overflowed = 0
    overflow_nbytes = 0
    compressed = 0
    try:
        mode, bound = declared_bound(dataset)
        if dataset.layout == "declared":
            bound = _effective_abs_bound(dataset, mode, bound)
            if mode == "rel":
                mode = "abs"  # resolved to an absolute promise
            for index in range(n_parts):
                entry = dataset.partition(index)
                compressed += entry.actual
                overflow_nbytes += entry.overflow_nbytes
                overflowed += 1 if entry.overflow_nbytes else 0
        else:
            compressed = dataset.stored_nbytes
        # The one read route: a region-less partition or a decoded shape
        # that disagrees with its region raises here.
        recon = dataset.read()
        if recon.shape != reference.shape:
            raise VerificationError(
                f"{name}: read-back shape {recon.shape} != reference {reference.shape}"
            )
        err = max_abs_error(reference, recon)
        if mode == "exact":
            passed = bool(np.array_equal(
                np.asarray(recon, dtype=reference.dtype), reference
            ))
        else:
            passed = not violates_bound(reference, recon, bound, rtol=BOUND_RTOL)
        return FieldCertificate(
            field=name,
            mode=mode,
            bound=bound,
            max_error=err,
            psnr_db=psnr(reference, recon),
            nrmse=_nrmse(reference, recon),
            n_partitions=n_parts,
            overflowed_partitions=overflowed,
            overflow_nbytes=overflow_nbytes,
            compressed_nbytes=compressed,
            logical_nbytes=int(reference.nbytes),
            passed=passed,
        )
    except ReproError as exc:
        return FieldCertificate(
            field=name,
            mode="abs",
            bound=float("nan"),
            max_error=float("inf"),
            psnr_db=float("-inf"),
            nrmse=float("inf"),
            n_partitions=n_parts,
            overflowed_partitions=overflowed,
            overflow_nbytes=overflow_nbytes,
            compressed_nbytes=compressed,
            logical_nbytes=int(reference.nbytes),
            passed=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def certify(
    source: "str | File",
    reference: Mapping[str, np.ndarray],
    group: str = "fields",
) -> CertificationReport:
    """Certify every referenced field of one group of a written file.

    ``source`` is a file path or an open :class:`~repro.hdf5.file.File`;
    ``reference`` maps field names to the original global arrays.
    """
    owns = isinstance(source, str)
    f = File(source, "r") if owns else source
    try:
        report = CertificationReport(path=f.path)
        grp = f[group]
        for name, ref in reference.items():
            obj = grp[name]
            if not isinstance(obj, Dataset):
                raise VerificationError(f"{group}/{name} is not a dataset")
            report.certificates.append(
                certify_dataset(obj, ref, label=f"{group}/{name}")
            )
        return report
    finally:
        if owns:
            f.close()


# ---------------------------------------------------------------------------
# Codec-level certification (SZ and the lossless backends, deterministic sweep)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecCertificate:
    """One codec configuration's round-trip certification."""

    codec: str
    params: str
    mode: str  # "abs" / "exact"
    bound: float
    max_error: float
    deterministic: bool
    passed: bool
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "codec": self.codec,
            "params": self.params,
            "mode": self.mode,
            "bound": self.bound,
            "max_error": self.max_error,
            "deterministic": self.deterministic,
            "passed": self.passed,
            "error": self.error,
        }


def _codec_test_array(seed: int, dtype: np.dtype, shape=(12, 10, 8)) -> np.ndarray:
    """Deterministic smooth-plus-noise array (the regime codecs target)."""
    rng = np.random.default_rng([0x5EED, seed])
    axes = [np.linspace(0.0, 2.0 * np.pi, s, endpoint=False) for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    smooth = sum(np.cos(g) for g in grids) / len(shape)
    return (smooth + 0.05 * rng.normal(0.0, 1.0, shape)).astype(dtype)


def _roundtrip(codec: SZCompressor, data: np.ndarray) -> tuple[np.ndarray, bool]:
    """Round-trip plus a compress-twice determinism check."""
    stream = codec.compress(data)
    deterministic = codec.compress(data) == stream
    return codec.decompress(stream), deterministic


def certify_codecs(seed: int = 0) -> list[CodecCertificate]:
    """Deterministic round-trip sweep over every codec family.

    SZ: bound modes × lossless backends, asserted point-wise; lossless
    backends: exact byte round-trips of a representative stream.
    """
    out: list[CodecCertificate] = []
    for dtype in (np.float32, np.float64):
        data = _codec_test_array(seed, np.dtype(dtype))
        # -- SZ: the error-bounded family ------------------------------------
        for mode, bound in (("abs", 1e-3), ("abs", 1e-1), ("rel", 1e-4)):
            for lossless in ("zlib", "none"):
                params = f"mode={mode} bound={bound:g} lossless={lossless} {dtype.__name__}"
                try:
                    codec = SZCompressor(bound=bound, mode=mode, lossless=lossless)
                    recon, det = _roundtrip(codec, data)
                    abs_bound = (
                        bound if mode == "abs" else bound * value_range(data)
                    )
                    err = max_abs_error(data, recon)
                    passed = (
                        det
                        and recon.dtype == data.dtype
                        and not violates_bound(data, recon, abs_bound, rtol=BOUND_RTOL)
                    )
                    out.append(CodecCertificate(
                        codec="sz", params=params, mode="abs", bound=abs_bound,
                        max_error=err, deterministic=det, passed=passed,
                    ))
                except ReproError as exc:
                    out.append(CodecCertificate(
                        codec="sz", params=params, mode="abs", bound=float("nan"),
                        max_error=float("inf"), deterministic=False, passed=False,
                        error=f"{type(exc).__name__}: {exc}",
                    ))
    # -- lossless backends: exact byte round-trips ---------------------------
    payload = _codec_test_array(seed, np.dtype(np.float32)).tobytes()
    for backend in ("zlib", "none"):
        params = f"backend={backend}"
        try:
            stream = lossless_compress(payload, backend, 1)
            back, _ = lossless_decompress(stream)
            det = lossless_compress(payload, backend, 1) == stream
            out.append(CodecCertificate(
                codec="lossless", params=params, mode="exact", bound=0.0,
                max_error=0.0 if back == payload else float("inf"),
                deterministic=det, passed=det and back == payload,
            ))
        except ReproError as exc:
            out.append(CodecCertificate(
                codec="lossless", params=params, mode="exact", bound=0.0,
                max_error=float("inf"), deterministic=False, passed=False,
                error=f"{type(exc).__name__}: {exc}",
            ))
    return out
