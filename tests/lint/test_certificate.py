"""Restriction certificates: fingerprint binding, engine wiring, and
checks-off differential equivalence."""

import pytest

from repro.interp import CompiledSimulator, UnitSimulator, make_simulator
from repro.lang.errors import (
    FleetEmitConflictError,
    FleetRestrictionError,
)
from repro.lint import certificate_for, certify_program, program_fingerprint
from repro.lint.selftest import _unproven_conflict
from repro.lint.units import build_app_unit


def test_fingerprint_is_reproducible_and_distinguishes_programs():
    a1 = program_fingerprint(build_app_unit("regex_match"))
    a2 = program_fingerprint(build_app_unit("regex_match"))
    b = program_fingerprint(build_app_unit("string_search"))
    assert a1 == a2
    assert a1 != b
    assert len(a1) == 64 and int(a1, 16) >= 0


def test_certificate_covers_only_its_own_program():
    # The fingerprint is the lookup key: another program gets its own.
    regex = build_app_unit("regex_match")
    other = build_app_unit("string_search")
    certificate = certificate_for(regex)
    assert certificate.ok
    assert certificate.fingerprint == regex.fingerprint
    assert certificate_for(other) is not certificate
    assert certificate_for(other).fingerprint == other.fingerprint


def test_certificate_for_is_cached():
    program = build_app_unit("identity")
    assert certificate_for(program) is certificate_for(program)


def test_certified_run_is_byte_identical_with_checks_off(rnd):
    for name, alphabet in (("regex_match", b"abcdx"),
                           ("string_search", b"abrakadabra"),
                           ("identity", bytes(range(256)))):
        program = build_app_unit(name)
        certificate = certificate_for(program)
        assert certificate.ok
        for _ in range(5):
            stream = bytes(rnd.choice(alphabet)
                           for _ in range(rnd.randrange(0, 60)))
            checked = UnitSimulator(program)
            want = list(checked.run(stream))
            # The engine a clean certificate selects performs no checks.
            certified = make_simulator(program)
            assert isinstance(certified, CompiledSimulator)
            got = list(certified.run(stream))
            assert got == want


def test_failed_certificate_keeps_dynamic_checks_on():
    program = _unproven_conflict()
    certificate = certificate_for(program)
    assert not certificate.ok
    sim = make_simulator(program)
    assert isinstance(sim, UnitSimulator)
    # Input 0b11 satisfies both emit guards: the dynamic check must
    # still fire on the engine a failed certificate leaves.
    with pytest.raises(FleetEmitConflictError):
        list(sim.run(bytes([0b11])))
    # And input 0b01 takes only the first arm: no error.
    ok = make_simulator(program)
    assert list(ok.run(bytes([0b01]))) == [1]


def test_certify_program_reasons_name_the_failures():
    program = _unproven_conflict()
    certificate = certify_program(program)
    assert not certificate.ok
    assert any("unproven conflict" in reason
               for reason in certificate.reasons)
    assert "NOT certified" in certificate.render()
    payload = certificate.to_json()
    assert payload["certified"] is False
    assert payload["fingerprint"] == program_fingerprint(program)


def test_restriction_error_hierarchy_matches_certificate_claim():
    # The certificate only claims FleetRestrictionError cannot fire;
    # the emit-conflict class used above must be in that family.
    assert issubclass(FleetEmitConflictError, FleetRestrictionError)
