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
    BatchStreamSimulator,
    CompiledSimulator,
    UnitSimulator,
    batch_engine_for,
    batch_support,
    cc_available,
    compile_batch,
    compile_cc,
    compile_program,
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


def _native_sim(program, **kwargs):
    return BatchStreamSimulator(program, unit=compile_batch(program),
                                **kwargs)


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
    certificate = certificate_for(program)
    assert not certificate.ok
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, StateLayout(program), certificate=certificate)
    # Automatic selection declines; building a batch unit is a typed
    # error.
    assert batch_engine_for(program) is None
    with pytest.raises(FleetSimulationError):
        compile_batch(program)


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
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, StateLayout(program), certificate=certificate)


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
        oracle = UnitSimulator(program)
        oracle.run(stream)
        native = _native_sim(program)
        native.run(stream)
        assert _signature(native) == _signature(oracle)


@needs_kernel
def test_cc_reset_reuses_the_kernel():
    program = bloom_filter_unit()
    sim = _native_sim(program)
    stream = _stream(64, seed=5)
    sim.run(stream)
    first = _signature(sim)
    sim.reset()
    sim.run(stream)
    assert _signature(sim) == first


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
    compiled = CompiledSimulator(program, max_vcycles_per_token=2)
    native = _native_sim(program, max_vcycles_per_token=2)
    with pytest.raises(FleetSimulationError) as c_info:
        compiled.run(stream)
    with pytest.raises(FleetSimulationError) as n_info:
        native.run(stream)
    assert type(n_info.value) is type(c_info.value)
    assert str(n_info.value) == str(c_info.value)


@needs_kernel
def test_cc_finished_stream_guards():
    program = int_coding_unit()
    sim = _native_sim(program)
    sim.run(_stream(8))
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.process_token(0)
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.finish_stream()
