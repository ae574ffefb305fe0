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

The re-exports below load on first use (a module ``__getattr__``):
importing one submodule, as serving and the engines do with
:mod:`repro.lint.certificate`, does not load the soundness replay and
the fuzzer it drives.
"""

from importlib import import_module

#: re-exported name -> the submodule defining it
_EXPORTS = {
    "RestrictionCertificate": "certificate",
    "certificate_for": "certificate",
    "certify_program": "certificate",
    "program_fingerprint": "certificate",
    "CostFacts": "cost",
    "LoopBound": "cost",
    "PhaseCost": "cost",
    "build_cost": "cost",
    "Interval": "domain",
    "Analysis": "engine",
    "ROLE_ADDR": "facts",
    "ROLE_VALUE": "facts",
    "SpecializationFacts": "facts",
    "build_facts": "facts",
    "expr_fact_key": "facts",
    "FINDING_CLASSES": "findings",
    "SEVERITIES": "findings",
    "ConstantConditionFinding": "findings",
    "DeadAssignmentFinding": "findings",
    "DependentReadFinding": "findings",
    "LintFinding": "findings",
    "NonterminationRiskFinding": "findings",
    "OutOfBoundsAddressFinding": "findings",
    "RestrictionConflictFinding": "findings",
    "UninitializedReadFinding": "findings",
    "UnreachableArmFinding": "findings",
    "LintReport": "passes",
    "lint_program": "passes",
    "reports_to_sarif": "sarif",
    "run_selftest": "selftest",
    "SoundnessResult": "soundness",
    "SoundnessViolation": "soundness",
    "check_corpus": "soundness",
    "check_fuzz": "soundness",
    "check_spec": "soundness",
    "APP_UNIT_BUILDERS": "units",
    "build_app_unit": "units",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_EXPORTS)
