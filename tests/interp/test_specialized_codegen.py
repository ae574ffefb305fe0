"""Certified specialization of the compiled engine.

The certificate-driven lowering must be byte-identical to the checking
interpreter — outputs, per-token virtual-cycle counts, emit traces, and
final state — and a certificate that no longer covers its program must
*refuse* to specialize rather than silently elide checks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import int_coding_unit, regex_match_unit
from repro.interp import (
    CompiledSimulator,
    UnitSimulator,
    compile_program,
    fast_engine_for,
    try_specialize,
)
from repro.interp.lower import lower
from repro.lang import FleetRestrictionError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for
from repro.testing import generator as gen_mod
from repro.testing import spec as spec_mod

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _signature(sim):
    return (
        tuple(sim.outputs),
        tuple(sim.trace.vcycles_per_token),
        tuple(sim.trace.emits_per_token),
        tuple(sim.peek_reg(r.name) for r in sim.program.regs),
        tuple(tuple(sim.peek_bram(b.name)) for b in sim.program.brams),
    )


def _run(sim_factory, streams):
    signatures = []
    for stream in streams:
        sim = sim_factory()
        sim.run(stream)
        signatures.append(_signature(sim))
    return signatures


# ---------------------------------------------------------------------------
# The hypothesis property: specialized == interp, always
# ---------------------------------------------------------------------------


@slow
@given(st.integers(min_value=0, max_value=2_000))
def test_specialized_codegen_byte_identical(seed):
    rng = random.Random(f"specialized:{seed}")
    spec = gen_mod.generate_spec(rng)
    streams = gen_mod.generate_streams(rng, spec)
    program = spec_mod.build_unit(spec)
    certificate = certificate_for(program)
    if not (certificate.ok and certificate.facts is not None):
        return  # uncertified programs have no specialized lowering
    specialized = compile_program(program, certificate=certificate)
    oracle = _run(lambda: UnitSimulator(program, engine="interp"), streams)
    assert _run(
        lambda: CompiledSimulator(program, unit=specialized), streams
    ) == oracle


def test_app_units_specialize_and_match():
    for build in (int_coding_unit, regex_match_unit):
        program = build()
        certificate = certificate_for(program)
        assert certificate.ok and certificate.facts is not None
        specialized = compile_program(program, certificate=certificate)
        stream = [random.Random(7).randrange(256) for _ in range(300)]
        oracle = _run(lambda: UnitSimulator(program, engine="interp"),
                      [stream])
        assert _run(
            lambda: CompiledSimulator(program, unit=specialized), [stream]
        ) == oracle


# ---------------------------------------------------------------------------
# Mask elision actually happens
# ---------------------------------------------------------------------------


def test_specialization_elides_masks_and_records_counts():
    program = int_coding_unit()
    certificate = certificate_for(program)
    specialized = compile_program(program, certificate=certificate)
    elisions = specialized.elisions
    assert elisions["slice_masks"] > 0 and elisions["const_folds"] > 0
    # One lowering per phase: both cycles' counts, nothing counted twice.
    lowered = lower(program, certificate.facts)
    assert lowered.elisions == elisions


def test_clean_certificate_keeps_the_specialized_unit(monkeypatch):
    # A clean certificate switches the interpreter's restriction checks
    # off; it must not also swap the certified unit for a lesser one.
    import repro.interp.compile as compile_mod

    program = int_coding_unit()
    picked = []
    real = compile_mod.fast_engine_for

    def spy(*args, **kwargs):
        picked.append(real(*args, **kwargs))
        return picked[-1]

    monkeypatch.setattr(compile_mod, "fast_engine_for", spy)
    stream = [random.Random(5).randrange(256) for _ in range(200)]
    sim = UnitSimulator(program, certificate=certificate_for(program))
    outputs = sim.run(stream)
    assert sim.last_run_engine == "compiled"
    assert picked == [try_specialize(program)]
    assert outputs == UnitSimulator(program, engine="interp").run(stream)


# ---------------------------------------------------------------------------
# Certificate invalidation: stale fingerprints never elide
# ---------------------------------------------------------------------------


def _conflict_free_unit():
    b = UnitBuilder("inv", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = b.input
    b.emit(b.input)
    return b.finish()


def _mutate_into_conflict(program):
    """Append a second unconditional write to the same BRAM — a dynamic
    two-writes restriction violation on every token."""
    from repro.lang.ast import BramWrite, Const

    program.body = tuple(program.body) + (
        BramWrite(program.brams[0], Const(1, 3), Const(2, 8)),
    )


def test_stale_certificate_refuses_specialization():
    program = _conflict_free_unit()
    certificate = certificate_for(program)
    assert certificate.ok
    _mutate_into_conflict(program)
    assert not certificate.covers(program)
    with pytest.raises(FleetSimulationError, match="refusing"):
        compile_program(program, certificate=certificate)
    assert try_specialize(program, certificate=certificate) is None


def test_mutated_program_is_still_dynamically_checked():
    program = _conflict_free_unit()
    certificate = certificate_for(program)
    _mutate_into_conflict(program)
    # The stale certificate is rejected outright — it can never elide.
    with pytest.raises(FleetSimulationError, match="does not cover"):
        UnitSimulator(program, certificate=certificate)
    # And the unassisted interpreter still catches the violation.
    with pytest.raises(FleetRestrictionError, match="written twice"):
        UnitSimulator(program).process_token(0)


def test_rejected_certificate_refuses_specialization():
    b = UnitBuilder("rej", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite two-writes conflict: certification fails
    program = b.finish()
    certificate = certificate_for(program)
    assert not certificate.ok
    with pytest.raises(FleetSimulationError, match="rejected"):
        compile_program(program, certificate=certificate)
    assert try_specialize(program) is None


# ---------------------------------------------------------------------------
# certificate_for is memoized per fingerprint
# ---------------------------------------------------------------------------


def test_lint_runs_once_per_program_fingerprint(monkeypatch):
    from repro.lint import certificate as cert_mod

    calls = []
    real = cert_mod.certify_program

    def counting(program, report=None):
        calls.append(program.name)
        return real(program, report)

    monkeypatch.setattr(cert_mod, "certify_program", counting)
    # Structurally unique (fresh constant), so the process-wide
    # fingerprint cache can't already hold this program's certificate.
    b = UnitBuilder("memo-count", input_width=8, output_width=8)
    b.emit((b.input + 113).bits(7, 0))
    program = b.finish()
    # Repeated engine selection must certify once, not once per call.
    for _ in range(5):
        fast_engine_for(program)
        certificate_for(program)
    assert len(calls) == 1
