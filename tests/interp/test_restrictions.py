"""Dynamic restriction checks — the paper's software-simulator role."""

import pytest

from repro.interp import UnitSimulator
from repro.lang import FleetRestrictionError, UnitBuilder


def test_two_reads_different_addresses_rejected():
    b = UnitBuilder("r2", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    x = b.reg("x", width=8)
    x.set((m[0] + m[1]).bits(7, 0))
    unit = b.finish()
    with pytest.raises(FleetRestrictionError, match="two addresses"):
        UnitSimulator(unit).process_token(0)


def test_two_reads_same_address_allowed():
    b = UnitBuilder("r1", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    x = b.reg("x", width=8)
    x.set((m[3] + m[3]).bits(7, 0))
    unit = b.finish()
    UnitSimulator(unit).process_token(0)  # one port suffices


def test_mutually_exclusive_reads_allowed():
    b = UnitBuilder("rx", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    with b.when(b.input == 0):
        b.emit(m[0])
    with b.otherwise():
        b.emit(m[1])
    unit = b.finish()
    sim = UnitSimulator(unit)
    sim.process_token(0)
    sim.process_token(5)  # both paths fine, one at a time


def test_two_writes_rejected():
    b = UnitBuilder("w2", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2
    unit = b.finish()
    with pytest.raises(FleetRestrictionError, match="written twice"):
        UnitSimulator(unit).process_token(0)


def test_read_plus_write_same_cycle_allowed():
    b = UnitBuilder("rw", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = m[1] + 1
    unit = b.finish()
    UnitSimulator(unit).process_token(0)


def test_two_emits_rejected():
    b = UnitBuilder("e2", input_width=8, output_width=8)
    b.emit(1)
    b.emit(2)
    unit = b.finish()
    with pytest.raises(FleetRestrictionError, match="more than one emit"):
        UnitSimulator(unit).process_token(0)


def test_exclusive_emits_allowed():
    b = UnitBuilder("ex", input_width=8, output_width=8)
    with b.when(b.input == 0):
        b.emit(1)
    with b.otherwise():
        b.emit(2)
    unit = b.finish()
    # Final 1 = the cleanup virtual cycle's dummy 0 token.
    assert UnitSimulator(unit).run([0, 5]) == [1, 2, 1]


def test_double_register_assignment_rejected():
    b = UnitBuilder("a2", input_width=8, output_width=8)
    r = b.reg("r", width=8)
    r.set(1)
    r.set(2)
    unit = b.finish()
    with pytest.raises(FleetRestrictionError, match="assigned twice"):
        UnitSimulator(unit).process_token(0)


def test_vreg_same_index_double_write_rejected():
    b = UnitBuilder("v2", input_width=8, output_width=8)
    v = b.vreg("v", elements=4, width=8)
    v[1] = 1
    v[b.input.bits(1, 0)] = 2
    unit = b.finish()
    with pytest.raises(FleetRestrictionError):
        UnitSimulator(unit).process_token(1)
    # ...but distinct dynamic indices are fine.
    sim = UnitSimulator(unit)
    sim.reset()
    sim.process_token(2)


def test_loop_cycle_restrictions_apply_per_vcycle():
    # One read per loop vcycle is fine even though the loop performs many
    # reads over its lifetime (the histogram pattern).
    b = UnitBuilder("loop", input_width=8, output_width=8)
    m = b.bram("m", elements=4, width=8)
    idx = b.reg("idx", width=3, init=0)
    run = b.reg("run", width=1, init=1)
    with b.while_(run == 1):
        b.emit(m[idx.bits(1, 0)])
        idx.set(idx + 1)
        with b.when(idx == 3):
            run.set(0)
    unit = b.finish()
    out = UnitSimulator(unit).run([0])
    assert out == [0, 0, 0, 0]
