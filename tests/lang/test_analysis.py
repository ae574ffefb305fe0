"""Static restriction checks (dependent BRAM reads, nested loops)."""

import pytest

from repro.lang import (
    FleetDependentReadError,
    FleetRestrictionError,
    UnitBuilder,
)


def test_read_address_from_register_allowed():
    b = UnitBuilder("ok", input_width=8, output_width=8)
    idx = b.reg("idx", width=4)
    m = b.bram("m", elements=16, width=8)
    b.emit(m[idx])
    b.finish()  # no error


def test_read_address_containing_read_rejected():
    b = UnitBuilder("bad", input_width=8, output_width=8)
    a = b.bram("a", elements=16, width=4)
    m = b.bram("m", elements=16, width=8)
    b.emit(m[a[0]])  # the paper's a[b[0]] example
    with pytest.raises(FleetRestrictionError, match="a\\[b\\[0\\]\\]"):
        b.finish()


def test_read_of_same_bram_in_own_address_rejected():
    b = UnitBuilder("bad", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=4)
    b.emit(m[m[0]])
    with pytest.raises(FleetRestrictionError):
        b.finish()


def test_read_gated_by_read_condition_rejected():
    # The paper's second example: if (b[0]) x = a[0] else x = a[1].
    b = UnitBuilder("bad", input_width=8, output_width=8)
    sel = b.bram("sel", elements=4, width=1)
    a = b.bram("a", elements=4, width=8)
    x = b.reg("x", width=8)
    with b.when(sel[0] == 1):
        x.set(a[0])
    with b.otherwise():
        x.set(a[1])
    with pytest.raises(FleetRestrictionError, match="gated"):
        b.finish()


def test_read_in_condition_gating_register_writes_allowed():
    # Read data may feed register updates (stage 2), as in the decision
    # tree's comparisons.
    b = UnitBuilder("ok", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    idx = b.reg("idx", width=4)
    x = b.reg("x", width=8)
    with b.when(m[idx] > 10):
        x.set(1)
    with b.otherwise():
        x.set(2)
    b.finish()  # no error


def test_loop_body_read_gated_by_reading_while_cond_rejected():
    b = UnitBuilder("bad", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    idx = b.reg("idx", width=4)
    with b.while_(m[0] != 0):
        idx.set(m[idx])
    with pytest.raises(FleetRestrictionError, match="condition chain"):
        b.finish()


def test_read_only_in_while_condition_now_validates():
    # Previously over-rejected: the *only* BRAM read is in the while
    # condition itself, at a constant address — nothing makes any read
    # address depend on same-cycle read data. The old whole-program
    # check rejected this because "a while condition reads a BRAM and
    # the program reads a BRAM" (they were the same read).
    b = UnitBuilder("ok", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    n = b.reg("n", width=4)
    with b.while_(m[0] != 0):
        n.set(n + 1)
    b.finish()  # no error


def test_post_loop_read_with_reading_while_cond_rejected():
    # The while_done mux dependence: a post-loop read fires only when
    # every loop condition is false, and that flag depends on the while
    # condition's BRAM read.
    b = UnitBuilder("bad", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    d = b.bram("d", elements=16, width=8)
    n = b.reg("n", width=4)
    with b.while_(m[0] != 0):
        n.set(n + 1)
    b.emit(d[n])
    with pytest.raises(FleetRestrictionError, match="while_done"):
        b.finish()


def test_violation_message_includes_guard_chain():
    from repro.lang import ast
    from repro.lang.analysis import dependent_read_violations

    b = UnitBuilder("bad", input_width=8, output_width=8)
    sel = b.bram("sel", elements=4, width=1)
    a = b.bram("a", elements=4, width=8)
    x = b.reg("x", width=8)
    with b.when(sel[0] == 1):
        x.set(a[0])
    # Assemble the program without finish()'s validation so the full
    # violation list (not just the first raise) can be inspected.
    program = ast.UnitProgram(
        b.name, b.input_width, b.output_width,
        b._regs, b._vregs, b._brams, b._body,
    )
    violations = dependent_read_violations(program)
    assert len(violations) == 1
    assert violations[0].kind == "guard"
    assert "sel[0]" in violations[0].message
    assert violations[0].bram is a.decl


def test_write_address_from_read_data_allowed():
    # Writes happen in stage 2; their addresses may use read data.
    b = UnitBuilder("ok", input_width=8, output_width=8)
    src = b.bram("src", elements=16, width=4)
    dst = b.bram("dst", elements=16, width=8)
    idx = b.reg("idx", width=4)
    dst[src[idx]] = b.input
    b.finish()  # no error


def test_wire_does_not_hide_dependent_read():
    b = UnitBuilder("bad", input_width=8, output_width=8)
    a = b.bram("a", elements=16, width=4)
    m = b.bram("m", elements=16, width=8)
    addr = b.wire(a[0] + 1)
    b.emit(m[addr])
    with pytest.raises(FleetRestrictionError):
        b.finish()


def test_post_loop_read_under_reading_loop_guard_rejected():
    # A while's loop guard is its condition *and* every condition
    # enclosing it. Here the enclosing if reads a BRAM, so while_done
    # depends on read data just as with a reading while condition.
    b = UnitBuilder("bad", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    d = b.bram("d", elements=16, width=8)
    r = b.reg("r", width=4)
    with b.when(m[0] > 4):
        with b.while_(r < 3):
            r.set(r + 1)
    b.emit(d[r])
    with pytest.raises(FleetDependentReadError, match="while_done"):
        b.finish()
