"""The batch engine's native C tier (``repro.interp.cc``).

Certified-only: the C kernel prints the same lowering as the certified
compiled-Python unit, so every test here is a
byte-identity claim against that engine and the interpreter oracle —
outputs, virtual-cycle and emit traces, final register/BRAM state, and
the exact loop-limit error. Toolchain-dependent tests skip cleanly when
no C compiler is available (or ``FLEET_NATIVE=off``).
"""

import random

import pytest

import repro.interp.batch as batch_mod
from repro.apps import (
    bloom_filter_unit,
    decision_tree_unit,
    int_coding_unit,
    json_field_unit,
)
from repro.interp import (
    BatchStreamSimulator,
    CompiledSimulator,
    UnitSimulator,
    batch_support,
    cc_available,
    compile_batch,
    compile_cc,
    compile_program,
    numpy_available,
    run_batch_streams,
    try_compile_batch,
)
from repro.lang import FleetConfigError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy unavailable"
)
needs_cc = pytest.mark.skipif(
    not (numpy_available() and cc_available()),
    reason="no C toolchain (or FLEET_NATIVE=off)",
)


def _signature(sim):
    return (
        tuple(sim.outputs),
        tuple(sim.trace.vcycles_per_token),
        tuple(sim.trace.emits_per_token),
        tuple(sim.peek_reg(r.name) for r in sim.program.regs),
        tuple(tuple(sim.peek_bram(b.name)) for b in sim.program.brams),
    )


def _stream(n, width=256, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(width) for _ in range(n)]


def _native_sim(program, **kwargs):
    unit = compile_batch(program, backend="cc")
    return BatchStreamSimulator(program, unit=unit, **kwargs)


def _uncertified():
    b = UnitBuilder("uncert", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite conflict: never certifies
    return b.finish()


# ---------------------------------------------------------------------------
# Support and gating (no toolchain required)
# ---------------------------------------------------------------------------


@needs_numpy
def test_cc_support_accepts_machine_word_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        ok, reason = batch_support(build())
        assert ok, reason


@needs_numpy
def test_cc_support_rejects_wide_expressions():
    # Decision tree concatenates past the 64-bit machine word.
    ok, reason = batch_support(decision_tree_unit())
    assert not ok
    assert "64" in reason


@needs_numpy
def test_cc_requires_a_certificate():
    program = _uncertified()
    certificate = certificate_for(program)
    assert not certificate.ok
    unit = compile_batch(program, backend="numpy")
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, unit, certificate=certificate)
    # Automatic selection runs the NumPy tier; forcing the native tier
    # is a typed error.
    assert compile_batch(program, backend="auto").cc is None
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_batch(program, backend="cc")


@needs_numpy
def test_stale_certificate_refuses_native_build():
    from repro.lang.ast import BramWrite, Const

    b = UnitBuilder("cc-stale", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = b.input
    b.emit(b.input)
    program = b.finish()
    certificate = certificate_for(program)
    assert certificate.ok
    program.body = tuple(program.body) + (
        BramWrite(program.brams[0], Const(1, 3), Const(2, 8)),
    )
    assert not certificate.covers(program)
    unit = compile_batch(program, backend="numpy")
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, unit, certificate=certificate)


@needs_numpy
def test_fleet_native_off_disables_the_engine(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert not cc_available()
    assert compile_batch(int_coding_unit()).cc is None


@needs_cc
def test_fleet_native_off_wins_over_a_warm_cache(monkeypatch):
    # Build (and cache) the native kernel first, then flip the lever:
    # the cached kernel must not run.
    program = int_coding_unit()
    unit = try_compile_batch(program)
    assert unit.cc is not None
    calls = []
    real = batch_mod._run_batch_cc

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(batch_mod, "_run_batch_cc", spy)
    stream = _stream(50)
    native = run_batch_streams(program, [stream], unit=unit).outputs
    assert len(calls) == 1
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert run_batch_streams(program, [stream], unit=unit).outputs == native
    assert len(calls) == 1
    monkeypatch.delenv("FLEET_NATIVE")
    run_batch_streams(program, [stream], unit=unit)
    assert len(calls) == 2


def test_fleet_native_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "offf")
    with pytest.raises(FleetConfigError, match="FLEET_NATIVE"):
        cc_available()


# ---------------------------------------------------------------------------
# Byte identity (toolchain required)
# ---------------------------------------------------------------------------


@needs_cc
def test_cc_matches_oracle_on_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        program = build()
        stream = _stream(400)
        oracle = UnitSimulator(program)
        oracle.run(stream)
        native = _native_sim(program)
        native.run(stream)
        assert _signature(native) == _signature(oracle)


@needs_cc
def test_cc_reset_reuses_the_kernel():
    program = bloom_filter_unit()
    sim = _native_sim(program)
    stream = _stream(64, seed=5)
    sim.run(stream)
    first = _signature(sim)
    sim.reset()
    sim.run(stream)
    assert _signature(sim) == first


@needs_cc
def test_cc_source_is_c_and_cached_on_program():
    program = int_coding_unit()
    unit = try_compile_batch(program)
    assert unit is not None and unit.cc is not None
    assert try_compile_batch(program) is unit  # program-object cache
    assert "#include <stdint.h>" in unit.cc.source
    assert "fleet_run" in unit.cc.source


@needs_cc
def test_kernel_prints_the_python_units_lowering():
    # One lowering per program: the kernel and the certified Python unit
    # print the same structure, so their elision counts are one record.
    program = int_coding_unit()
    unit = compile_program(program)
    kernel = compile_batch(program, backend="cc").cc
    assert kernel.elisions is unit.elisions
    assert sum(kernel.elisions.values()) > 0


# ---------------------------------------------------------------------------
# Error parity with the compiled engine (toolchain required)
# ---------------------------------------------------------------------------


@needs_cc
def test_cc_loop_limit_fault_parity():
    program = int_coding_unit()
    stream = _stream(40, seed=9)
    compiled = CompiledSimulator(program, max_vcycles_per_token=2)
    native = _native_sim(program, max_vcycles_per_token=2)
    with pytest.raises(FleetSimulationError) as c_info:
        compiled.run(stream)
    with pytest.raises(FleetSimulationError) as n_info:
        native.run(stream)
    assert type(n_info.value) is type(c_info.value)
    assert str(n_info.value) == str(c_info.value)


@needs_cc
def test_cc_finished_stream_guards():
    program = int_coding_unit()
    sim = _native_sim(program)
    sim.run(_stream(8))
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.process_token(0)
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.finish_stream()
