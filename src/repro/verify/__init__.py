"""End-to-end verification: the trust layer under every refactor.

The paper's claim is only useful if it is *checkable*: a file written by
the predictive pipeline must read back within the user's point-wise error
bound, through every strategy, codec, executor backend, and overflow
case.  This package certifies exactly that, three ways:

* :mod:`certify` — round-trip certification of written files against the
  bounds their own metadata declares (plus the registered-codec sweep);
* :mod:`parity` — differential strategy × backend runs of one canonical
  workload with byte-fingerprint comparison;
* :mod:`fuzz` — seeded property-based perturbation of the named scenario
  regimes with failure shrinking.

``python -m repro.verify`` runs all three and emits a schema-versioned
``VERIFY_<sha>.json`` (see :mod:`report`); the CI ``verify-smoke`` job
gates on its exit status.  :meth:`repro.api.file.File.close` accepts
``verify=True`` (or ``PipelineConfig(verify=True)``) to certify every
dataset and streamed step a facade file wrote before handing it to the
user.

Note: the flagship callables :func:`certify` and :func:`fuzz` shadow
their defining submodules on the package object, so
``import repro.verify.certify as x`` binds the *function*; use
``from repro.verify.certify import ...`` (or the package-level names)
for module access.
"""

from repro.verify.certify import (
    BOUND_RTOL,
    CertificationReport,
    CodecCertificate,
    FieldCertificate,
    certify,
    certify_codecs,
    certify_dataset,
    declared_bound,
)
from repro.verify.fuzz import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    draw_case,
    fuzz,
    run_case,
    shrink_case,
)
from repro.verify.parity import (
    CANONICAL_SCENARIO,
    ParityCell,
    ParityResult,
    differential_parity,
    file_fingerprint,
)
from repro.verify.report import SCHEMA, build_report, save_report
from repro.verify.workloads import reference_fields, write_scenario_file

__all__ = [
    "BOUND_RTOL",
    "SCHEMA",
    "CANONICAL_SCENARIO",
    "CertificationReport",
    "CodecCertificate",
    "FieldCertificate",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "ParityCell",
    "ParityResult",
    "build_report",
    "certify",
    "certify_codecs",
    "certify_dataset",
    "declared_bound",
    "differential_parity",
    "draw_case",
    "file_fingerprint",
    "fuzz",
    "reference_fields",
    "run_case",
    "save_report",
    "shrink_case",
    "write_scenario_file",
]
