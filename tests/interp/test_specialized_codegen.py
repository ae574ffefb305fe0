"""Certified specialization of the compiled engine.

The certificate-driven lowering must be byte-identical to the checking
interpreter — outputs, per-token virtual-cycle counts, emit traces, and
final state — and a program whose own certificate is not clean must be
*refused* a specialized unit rather than silently lose its checks.
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
    make_simulator,
    try_specialize,
)
from repro.interp.lower import lower
from repro.lang import FleetRestrictionError, UnitBuilder, ast
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
    specialized = compile_program(program)
    oracle = _run(lambda: UnitSimulator(program, engine="interp"), streams)
    assert _run(
        lambda: CompiledSimulator(program, specialized), streams
    ) == oracle


def test_app_units_specialize_and_match():
    for build in (int_coding_unit, regex_match_unit):
        program = build()
        certificate = certificate_for(program)
        assert certificate.ok and certificate.facts is not None
        specialized = compile_program(program)
        stream = [random.Random(7).randrange(256) for _ in range(300)]
        oracle = _run(lambda: UnitSimulator(program, engine="interp"),
                      [stream])
        assert _run(
            lambda: CompiledSimulator(program, specialized), [stream]
        ) == oracle


def test_leaf_placed_twice_keeps_each_placements_mask():
    # One RegAssign object in three arms: the first and last arms prove
    # the 8-bit value fits the 4-bit register, the middle arm does not.
    # No single placement's facts may decide the mask of the others.
    r = ast.RegDecl("r", 4)
    token = ast.InputToken(8)
    leaf = ast.RegAssign(r, token)
    program = ast.UnitProgram("shared_leaf", 8, 8, [r], [], [], [
        ast.If([(ast.BinOp("lt", token, ast.Const(8, 8)), [leaf]),
                (ast.BinOp("ge", token, ast.Const(16, 8)), [leaf]),
                (None, [leaf])]),
        ast.Emit(ast.RegRead(r)),
    ])
    certificate = certificate_for(program)
    assert certificate.ok and certificate.facts is not None
    specialized = compile_program(program)
    stream = [3, 200, 12, 17, 255, 9, 0]
    oracle = _run(lambda: UnitSimulator(program, engine="interp"), [stream])
    assert _run(
        lambda: CompiledSimulator(program, specialized), [stream]
    ) == oracle


# ---------------------------------------------------------------------------
# Mask elision actually happens
# ---------------------------------------------------------------------------


def test_specialization_elides_masks_and_records_counts():
    program = int_coding_unit()
    certificate = certificate_for(program)
    specialized = compile_program(program)
    elisions = specialized.elisions
    assert elisions["slice_masks"] > 0 and elisions["const_folds"] > 0
    # One lowering per phase: both cycles' counts, nothing counted twice.
    lowered = lower(program, certificate.facts)
    assert lowered.elisions == elisions


def test_clean_certificate_keeps_the_specialized_unit(monkeypatch):
    # A clean certificate gets the program its one certified unit: the
    # engine chooser must not swap it for a lesser one.
    import repro.interp.compile as compile_mod

    program = int_coding_unit()
    assert certificate_for(program).ok
    picked = []
    real = compile_mod.fast_engine_for

    def spy(*args, **kwargs):
        picked.append(real(*args, **kwargs))
        return picked[-1]

    monkeypatch.setattr(compile_mod, "fast_engine_for", spy)
    stream = [random.Random(5).randrange(256) for _ in range(200)]
    sim = make_simulator(program)
    outputs = sim.run(stream)
    assert picked == [try_specialize(program)]
    assert isinstance(sim, CompiledSimulator) and sim._unit is picked[0]
    assert outputs == UnitSimulator(program, engine="interp").run(stream)


# ---------------------------------------------------------------------------
# Certificate binding: a program is built under its own certificate only
# ---------------------------------------------------------------------------


def _inv_unit(conflict=False):
    """Program A (conflict-free), or B: the same name plus a second
    unconditional BRAM write — a dynamic two-writes restriction
    violation on every token."""
    b = UnitBuilder("inv", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = b.input
    with b.when(b.input > 3):
        b.emit(b.input)
    if conflict:
        m[1] = 2
    return b.finish()


def test_stale_certificate_refuses_specialization():
    # B shares A's name, but every builder looks its certificate up by
    # B's own fingerprint: A's clean certificate never reaches B.
    a, b = _inv_unit(), _inv_unit(conflict=True)
    certificate = certificate_for(a)
    assert certificate.ok and certificate.fingerprint == a.fingerprint
    assert certificate_for(b) is not certificate
    with pytest.raises(FleetSimulationError, match="refusing"):
        compile_program(b)
    assert try_specialize(b) is None
    # A's unit, once built, is still not handed out for B.
    assert try_specialize(a) is not None
    assert try_specialize(b) is None


def test_mutated_program_is_still_dynamically_checked():
    a, b = _inv_unit(), _inv_unit(conflict=True)
    certificate = certificate_for(a)
    # B runs on the checking interpreter, which catches its violation.
    sim = make_simulator(b)
    assert isinstance(sim, UnitSimulator)
    with pytest.raises(FleetRestrictionError, match="written twice"):
        sim.process_token(0)
    # A itself cannot be mutated into B after certification: its body,
    # its nodes, its declarations and its nested blocks reject writes.
    when = a.body[1]
    for target, field in ((a, "body"), (a.body[0], "value"),
                          (a.brams[0], "elements"), (when, "arms")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(target, field, b.body[0])
    with pytest.raises(TypeError):
        when.arms[0][1][0] = b.body[-1]
    assert certificate_for(a) is certificate


def test_rejected_certificate_refuses_specialization():
    b = UnitBuilder("rej", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite two-writes conflict: certification fails
    program = b.finish()
    certificate = certificate_for(program)
    assert not certificate.ok
    with pytest.raises(FleetSimulationError, match="rejected"):
        compile_program(program)
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


def test_threads_racing_on_a_cold_structure_share_valid_units(
        fresh_artifacts):
    # No lock guards the artifact record: racing threads may each build,
    # but every one runs a correct certified unit, and later lookups of
    # the structure all get the one unit the record kept.
    import sys
    import threading

    stream = [random.Random(11).randrange(256) for _ in range(200)]
    expected = UnitSimulator(regex_match_unit(), engine="interp").run(stream)
    results, errors = [], []

    def worker():
        try:
            program = regex_match_unit()
            unit = try_specialize(program)
            results.append(CompiledSimulator(program, unit).run(stream))
        except Exception as exc:  # re-raised by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * len(threads)
    assert try_specialize(regex_match_unit()) is try_specialize(
        regex_match_unit())
