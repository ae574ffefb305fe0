"""Lint pass pipeline: golden app snapshots and one negative program
per pass."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.errors import FleetError
from repro.lint import FINDING_CLASSES, certify_program, lint_program
from repro.lint.selftest import CASES
from repro.lint.units import APP_UNIT_BUILDERS, build_app_unit
from repro.testing import generator
from repro.testing import spec as spec_mod

#: Golden per-rule finding counts for every application unit at its
#: golden-test parameters. All units are clean (no errors, certified);
#: regex_match carries exactly one genuine warning — the accepting NFA
#: position's state register is written but never read (`hit` uses the
#: next-state wires instead) — and decision_tree one genuine
#: nontermination risk: its BRAM-pointer walk has no depth counter, so
#: an adversarial (cyclic) tree image loops until the vcycle limit.
EXPECTED_FINDINGS = {
    name: {} for name in APP_UNIT_BUILDERS
}
EXPECTED_FINDINGS["regex_match"] = {"lint/dead-assignment": 1}
EXPECTED_FINDINGS["decision_tree"] = {"lint/nontermination-risk": 1}


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_app_units_lint_clean_and_certify(name):
    program = build_app_unit(name)
    report = lint_program(program)
    assert report.by_rule() == EXPECTED_FINDINGS[name]
    assert report.clean
    certificate = certify_program(program, report)
    assert certificate.ok, certificate.reasons
    assert certificate.fingerprint == program.fingerprint


@pytest.mark.parametrize(
    "name,build,expected,certifies", CASES,
    ids=[case[0] for case in CASES])
def test_negative_program_per_pass(name, build, expected, certifies):
    program = build()
    report = lint_program(program)
    for rule, severity in expected.items():
        hits = [f for f in report.findings if f.rule == rule]
        assert hits, f"{name}: {rule} did not fire"
        assert any(f.severity == severity for f in hits)
        assert all(isinstance(f, FINDING_CLASSES[rule]) for f in hits)
    assert certify_program(program, report).ok == certifies


def test_report_shapes():
    program = build_app_unit("regex_match")
    report = lint_program(program)
    payload = report.to_json()
    assert payload["program"] == "regex_match"
    assert payload["clean"] and payload["proof_ok"]
    assert payload["counts"] == {"info": 0, "warning": 1, "error": 0}
    (finding,) = payload["findings"]
    assert finding["rule"] == "lint/dead-assignment"
    assert finding["resource"] == "state_3"
    assert finding["location"].startswith("body[")
    # Severity floor filters the rendered findings.
    assert len(report.filtered("info")) == 1
    assert len(report.filtered("error")) == 0
    assert "dead" in report.render("warning")
    assert "lint/dead-assignment" not in report.render("error")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_lint_never_crashes_on_generated_programs(seed):
    """The lint pipeline must total-function over everything the
    conformance fuzzer can produce."""
    rng = random.Random(seed)
    spec = generator.generate_spec(rng, name=f"fuzz_{seed}")
    try:
        program = spec_mod.build_unit(spec)
    except FleetError:
        return  # generator bug guard; not lint's problem
    report = lint_program(program)
    certificate = certify_program(program, report)
    assert certificate.fingerprint == program.fingerprint
    for finding in report.findings:
        assert finding.rule in FINDING_CLASSES
        assert finding.to_json()["severity"] in ("info", "warning", "error")
