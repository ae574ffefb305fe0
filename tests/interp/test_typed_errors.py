"""Every dynamic restriction violation raises its dedicated typed
exception (satellite of the conformance-engine work: the fuzzer
classifies oracle failures by type, never by message text)."""

import pytest

from repro.interp import UnitSimulator
from repro.interp.compile import CompiledSimulator, compile_program
from repro.lang import UnitBuilder, ast
from repro.lang.errors import (
    FleetAddressError,
    FleetAssignConflictError,
    FleetDependentReadError,
    FleetEmitConflictError,
    FleetLoopLimitError,
    FleetReadPortError,
    FleetRestrictionError,
    FleetSimulationError,
    FleetWritePortError,
)


def test_read_port_error():
    b = UnitBuilder("rp", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    x = b.reg("x", width=9)
    x.set(m[0] + m[1])
    with pytest.raises(FleetReadPortError):
        UnitSimulator(b.finish()).process_token(0)


def test_write_port_error():
    b = UnitBuilder("wp", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2
    with pytest.raises(FleetWritePortError):
        UnitSimulator(b.finish()).process_token(0)


def test_emit_conflict_error():
    b = UnitBuilder("ec", input_width=8, output_width=8)
    b.emit(b.input)
    b.emit(b.input)
    with pytest.raises(FleetEmitConflictError):
        UnitSimulator(b.finish()).process_token(0)


def test_reg_assign_conflict_error():
    b = UnitBuilder("rac", input_width=8, output_width=8)
    x = b.reg("x", width=8)
    x.set(1)
    x.set(2)
    with pytest.raises(FleetAssignConflictError):
        UnitSimulator(b.finish()).process_token(0)


def test_vreg_assign_conflict_error():
    b = UnitBuilder("vac", input_width=8, output_width=8)
    v = b.vreg("v", elements=4, width=8)
    v[0] = 1
    v[0] = 2
    with pytest.raises(FleetAssignConflictError):
        UnitSimulator(b.finish()).process_token(0)


def test_dependent_read_error_static():
    b = UnitBuilder("dr", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    b.emit(m[m[0]])
    with pytest.raises(FleetDependentReadError):
        b.finish()


def test_dependent_read_error_dynamic():
    # Bypass the builder (and its static validation) to reach the
    # simulator's dynamic dependent-read check.
    bram = ast.BramDecl("m", elements=8, width=8)
    inner = ast.BramRead(bram, ast.Const(0, 3))
    outer = ast.BramRead(bram, inner)
    program = ast.UnitProgram(
        "raw", 8, 8, regs=(), vregs=(), brams=(bram,),
        body=(ast.Emit(outer),),
    )
    with pytest.raises(FleetDependentReadError):
        UnitSimulator(program).process_token(0)


def test_address_error_non_power_of_two_bram():
    b = UnitBuilder("ae", input_width=8, output_width=8)
    m = b.bram("m", elements=5, width=8)
    m[b.input] = 1
    unit = b.finish()
    UnitSimulator(unit).process_token(4)  # in range
    with pytest.raises(FleetAddressError):
        UnitSimulator(unit).process_token(6)  # truncates to 6 >= 5


def test_loop_limit_error_interp_and_compiled():
    b = UnitBuilder("ll", input_width=8, output_width=8)
    with b.while_(b.const(1, 1)):
        b.emit(b.input)
    unit = b.finish()
    with pytest.raises(FleetLoopLimitError):
        UnitSimulator(unit, engine="interp",
                      max_vcycles_per_token=64).process_token(0)
    with pytest.raises(FleetLoopLimitError):
        CompiledSimulator(unit, compile_program(unit),
                          max_vcycles_per_token=64).run([0])


def test_hierarchy_is_backward_compatible():
    # Pre-existing code catches the coarse classes; the new typed
    # subclasses must land in the same nets.
    assert issubclass(FleetReadPortError, FleetRestrictionError)
    assert issubclass(FleetWritePortError, FleetRestrictionError)
    assert issubclass(FleetEmitConflictError, FleetRestrictionError)
    assert issubclass(FleetAssignConflictError, FleetRestrictionError)
    assert issubclass(FleetDependentReadError, FleetRestrictionError)
    assert issubclass(FleetAddressError, FleetSimulationError)
    assert issubclass(FleetLoopLimitError, FleetSimulationError)
