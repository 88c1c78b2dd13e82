"""End-to-end verification: the trust layer under every refactor.

The paper's claim is only useful if it is *checkable*: a file written by
the predictive pipeline must read back within the user's point-wise error
bound, through every strategy, codec, read route and overflow case.
This package certifies exactly that, three ways:

* :mod:`certify` — round-trip certification of written files against the
  bounds their own metadata declares (plus the registered-codec sweep);
* :mod:`parity` — the canonical scenario's certification cells, one
  file per strategy, each fingerprinted beside its certificate;
* :mod:`fuzz` — seeded property-based perturbation of the named scenario
  regimes with failure shrinking, plus injected NaN/Inf blocks in facade
  flush batches and streamed steps.

``python -m repro.verify`` runs all three, plus read-route and
served-write parity (:mod:`readpath`, :mod:`served`), writing each
``(scenario, strategy)`` file once through the :mod:`repro.api` facade
(:func:`write_scenario_file`), and emits a schema-versioned
``VERIFY_<sha>.json`` (see :mod:`report`); the CI ``verify-smoke`` job
gates on its exit status.  A facade file certifies what it wrote with
:meth:`repro.api.file.File.verify` (before or after close); any finished
file certifies against given arrays with :func:`certify`.

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
    FaultCase,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    draw_case,
    draw_fault,
    fuzz,
    run_case,
    run_fault_case,
    shrink_case,
)
from repro.verify.parity import (
    CANONICAL_SCENARIO,
    ParityResult,
    file_fingerprint,
    strategy_parity,
)
from repro.verify.report import SCHEMA, build_report, save_report
from repro.verify.workloads import reference_fields, write_scenario_file

__all__ = [
    "BOUND_RTOL",
    "SCHEMA",
    "CANONICAL_SCENARIO",
    "CertificationReport",
    "CodecCertificate",
    "FaultCase",
    "FieldCertificate",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "ParityResult",
    "build_report",
    "certify",
    "certify_codecs",
    "certify_dataset",
    "declared_bound",
    "draw_case",
    "draw_fault",
    "file_fingerprint",
    "fuzz",
    "reference_fields",
    "run_case",
    "run_fault_case",
    "save_report",
    "shrink_case",
    "strategy_parity",
    "write_scenario_file",
]
