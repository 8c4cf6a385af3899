"""``repro.fidelity`` — the machine-checked paper-fidelity scorecard.

Where ``benchmarks/e2e`` observes *performance* drift, this package
observes *scientific* drift: every claim in EXPERIMENTS.md — the
−21%/−24% chip savings of Figs 18/19, the §3.1 leakage asymmetries,
the Fig 11 lane U-curve, the §7.1 16-cells/bitline cliff — is encoded
as a typed assertion (:mod:`~repro.fidelity.claims`) keyed to its
paper anchor, evaluated against finished experiment artifacts and the
merged metrics snapshot (:mod:`~repro.fidelity.extract`), and graded
pass/degraded/fail/not-run (:mod:`~repro.fidelity.scorecard`). Records
are schema-versioned ``FIDELITY_<timestamp>.json`` files; the drift
gate (:mod:`~repro.fidelity.compare`) flags claims that newly crossed
a tolerance band, on the comparator core (:mod:`repro.compare`) it
shares with ``obs diff``.

CLI: ``repro fidelity run | report | compare``.
"""

from .claims import (CLAIMS, VERDICT_RANK, VERDICTS, Claim, ClaimResult,
                     OrderingClaim, ShapeClaim, ValueClaim, claims_by_id,
                     required_experiments)
from .compare import (compare_fidelity_paths, compare_fidelity_records,
                      render_fidelity_compare)
from .extract import ArtifactSet, NotAvailable
from .scorecard import (FIDELITY_SCHEMA, FIDELITY_SCHEMA_VERSION, SCALES,
                        FidelityRecordError, Scale, build_record,
                        default_fidelity_path, evaluate_claims,
                        load_fidelity_record, render_markdown,
                        render_scorecard, run_scale, write_fidelity_record)

__all__ = [
    "CLAIMS", "VERDICTS", "VERDICT_RANK", "Claim", "ClaimResult",
    "ValueClaim", "OrderingClaim", "ShapeClaim", "claims_by_id",
    "required_experiments",
    "ArtifactSet", "NotAvailable",
    "FIDELITY_SCHEMA", "FIDELITY_SCHEMA_VERSION", "SCALES", "Scale",
    "FidelityRecordError", "build_record", "default_fidelity_path",
    "evaluate_claims", "load_fidelity_record", "render_markdown",
    "render_scorecard", "run_scale", "write_fidelity_record",
    "compare_fidelity_paths", "compare_fidelity_records",
    "render_fidelity_compare",
]
