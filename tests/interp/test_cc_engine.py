"""The batch engine's C kernel (``repro.interp.cc``).

Certified-only: the C kernel prints the same lowering as the certified
compiled-Python unit, so every test here is a
byte-identity claim against that engine and the interpreter oracle —
outputs, virtual-cycle and emit traces, final register/BRAM state, and
the exact loop-limit error. Tests that build a kernel carry the
``needs_kernel`` marker and skip, naming why, when none can be built
(no C compiler, or ``FLEET_NATIVE=off``).
"""

import random

import pytest

from repro.apps import (
    bloom_filter_unit,
    decision_tree_unit,
    int_coding_unit,
    json_field_unit,
)
from repro.interp import (
    CompiledSimulator,
    batch_engine_for,
    batch_support,
    cc_available,
    compile_batch,
    compile_cc,
    compile_program,
    make_simulator,
    run_batch_streams,
)
from repro.interp.cc import StateLayout
from repro.lang import FleetConfigError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for

needs_kernel = pytest.mark.needs_kernel


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


def _native_signature(program, stream, unit=None):
    """``_signature`` of ``stream`` run as a batch of one: lane 0."""
    result = run_batch_streams(program, [stream],
                               unit=unit or compile_batch(program),
                               traces=True)
    trace = result.traces[0]
    return (
        tuple(result.outputs[0]),
        tuple(trace.vcycles_per_token),
        tuple(trace.emits_per_token),
        tuple(result.peek_reg(0, r.name) for r in program.regs),
        tuple(tuple(result.peek_bram(0, b.name)) for b in program.brams),
    )


def _uncertified():
    b = UnitBuilder("uncert", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite conflict: never certifies
    return b.finish()


# ---------------------------------------------------------------------------
# Support and gating (no toolchain required)
# ---------------------------------------------------------------------------


def test_cc_support_accepts_machine_word_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        ok, reason = batch_support(build())
        assert ok, reason


def test_cc_support_rejects_wide_expressions():
    # Decision tree concatenates past the 64-bit machine word.
    ok, reason = batch_support(decision_tree_unit())
    assert not ok
    assert "64" in reason


def test_cc_requires_a_certificate():
    program = _uncertified()
    assert not certificate_for(program).ok
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, StateLayout(program))
    # Automatic selection declines; building a batch unit is a typed
    # error.
    assert batch_engine_for(program) is None
    with pytest.raises(FleetSimulationError):
        compile_batch(program)


def test_stale_certificate_refuses_native_build():
    def unit(conflict):
        b = UnitBuilder("cc-stale", input_width=8, output_width=8)
        m = b.bram("m", elements=8, width=8)
        m[0] = b.input
        b.emit(b.input)
        if conflict:
            m[1] = 2  # same name, second BRAM write: never certifies
        return b.finish()

    a, b = unit(False), unit(True)
    assert certificate_for(a).ok
    # B shares A's name, but the builder looks up B's own certificate
    # by fingerprint, and that one is rejected.
    assert certificate_for(b) is not certificate_for(a)
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(b, StateLayout(b))


def test_fleet_native_off_disables_the_engine(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert not cc_available()
    program = int_coding_unit()
    with pytest.raises(FleetSimulationError, match="FLEET_NATIVE=off"):
        compile_batch(program)
    assert batch_engine_for(program) is None


def test_fleet_native_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "offf")
    with pytest.raises(FleetConfigError, match="FLEET_NATIVE"):
        cc_available()


# ---------------------------------------------------------------------------
# Byte identity (toolchain required)
# ---------------------------------------------------------------------------


@needs_kernel
def test_cc_matches_oracle_on_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        program = build()
        stream = _stream(400)
        oracle = make_simulator(program)
        oracle.run(stream)
        assert _native_signature(program, stream) == _signature(oracle)


@needs_kernel
def test_cc_reset_reuses_the_kernel():
    # Every call starts its lanes from fresh state, so one kernel runs
    # any number of batches.
    program = bloom_filter_unit()
    unit = compile_batch(program)
    stream = _stream(64, seed=5)
    first = _native_signature(program, stream, unit)
    assert _native_signature(program, stream, unit) == first


@needs_kernel
def test_cc_source_is_c_and_cached_on_program():
    program = int_coding_unit()
    unit = batch_engine_for(program)
    assert unit is not None and unit.cc is not None
    assert batch_engine_for(program) is unit  # program-object cache
    assert "#include <stdint.h>" in unit.cc.source
    assert "fleet_run" in unit.cc.source


@needs_kernel
def test_kernel_prints_the_python_units_lowering():
    # One lowering per program: the kernel and the certified Python unit
    # print the same structure, so their elision counts are one record.
    program = int_coding_unit()
    unit = compile_program(program)
    kernel = compile_batch(program).cc
    assert kernel.elisions is unit.elisions
    assert sum(kernel.elisions.values()) > 0


# ---------------------------------------------------------------------------
# Error parity with the compiled engine (toolchain required)
# ---------------------------------------------------------------------------


@needs_kernel
def test_cc_loop_limit_fault_parity():
    program = int_coding_unit()
    stream = _stream(40, seed=9)
    compiled = CompiledSimulator(program, compile_program(program),
                                 max_vcycles_per_token=2)
    with pytest.raises(FleetSimulationError) as c_info:
        compiled.run(stream)
    with pytest.raises(FleetSimulationError) as n_info:
        run_batch_streams(program, [stream], unit=compile_batch(program),
                          max_vcycles_per_token=2)
    assert type(n_info.value) is type(c_info.value)
    assert str(n_info.value) == str(c_info.value)
