"""repro.lint — static analysis for Fleet unit programs.

An abstract-interpretation dataflow engine (interval domain with
bit-width truncation, guard-aware refinement, loop-phase awareness) over
the Fleet AST, a pass pipeline producing typed findings, and
machine-checkable :class:`RestrictionCertificate` objects that let the
simulators disable their dynamic restriction checks for proven-clean
programs.

Entry points:

* :func:`lint_program` — run every pass, get a :class:`LintReport`;
* :func:`certify_program` / :func:`certificate_for` — produce (or fetch
  the cached) certificate;
* ``python -m repro.lint`` — the CLI (text/JSON/SARIF output, corpus
  soundness replay, selftest).

See ``docs/linting.md`` for the pass catalogue and certificate
semantics.
"""

from .certificate import (
    RestrictionCertificate,
    certificate_for,
    certify_program,
    program_fingerprint,
)
from .cost import CostFacts, LoopBound, PhaseCost, build_cost
from .domain import Interval
from .engine import Analysis
from .facts import (
    ROLE_ADDR,
    ROLE_VALUE,
    SpecializationFacts,
    build_facts,
    expr_fact_key,
)
from .findings import (
    FINDING_CLASSES,
    SEVERITIES,
    ConstantConditionFinding,
    DeadAssignmentFinding,
    DependentReadFinding,
    LintFinding,
    NonterminationRiskFinding,
    OutOfBoundsAddressFinding,
    RestrictionConflictFinding,
    UninitializedReadFinding,
    UnreachableArmFinding,
)
from .passes import LintReport, lint_program
from .sarif import reports_to_sarif
from .selftest import run_selftest
from .soundness import (
    SoundnessResult,
    SoundnessViolation,
    check_corpus,
    check_fuzz,
    check_spec,
)
from .units import APP_UNIT_BUILDERS, build_app_unit

__all__ = [
    "APP_UNIT_BUILDERS",
    "Analysis",
    "ConstantConditionFinding",
    "CostFacts",
    "DeadAssignmentFinding",
    "DependentReadFinding",
    "FINDING_CLASSES",
    "Interval",
    "LintFinding",
    "LintReport",
    "LoopBound",
    "NonterminationRiskFinding",
    "OutOfBoundsAddressFinding",
    "PhaseCost",
    "ROLE_ADDR",
    "ROLE_VALUE",
    "RestrictionCertificate",
    "RestrictionConflictFinding",
    "SEVERITIES",
    "SoundnessResult",
    "SoundnessViolation",
    "SpecializationFacts",
    "UninitializedReadFinding",
    "UnreachableArmFinding",
    "build_app_unit",
    "build_cost",
    "build_facts",
    "certificate_for",
    "certify_program",
    "check_corpus",
    "check_fuzz",
    "check_spec",
    "expr_fact_key",
    "lint_program",
    "program_fingerprint",
    "reports_to_sarif",
    "run_selftest",
]
