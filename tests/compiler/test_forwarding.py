"""BRAM result forwarding: why the last-written-(addr, data) registers
exist, and what eliding them costs."""

from repro.apps import block_frequencies_unit
from repro.compiler import UnitTestbench
from repro.interp import make_simulator


def test_forwarding_makes_back_to_back_counts_correct():
    """Consecutive identical tokens are the read-after-previous-write
    case: the virtual cycle for token N reads the address token N-1 just
    wrote. With forwarding, RTL matches the functional simulator."""
    unit = block_frequencies_unit(block_size=4)
    tokens = [7, 7, 7, 7]  # worst case: same BRAM address every cycle
    expected = make_simulator(unit).run(tokens)
    outputs, _ = UnitTestbench(unit).run(tokens)
    assert outputs == expected
    assert expected[7] == 4


def test_eliding_forwarding_breaks_this_program():
    """The paper lets users elide the forwarding register when they
    assert no read-after-previous-write occurs; the histogram violates
    that assertion on repeated tokens, so the elided design undercounts —
    the software simulator is exactly the tool that catches this."""
    unit = block_frequencies_unit(block_size=4)
    tokens = [7, 7, 7, 7]
    expected = make_simulator(unit).run(tokens)
    tb = UnitTestbench(unit, elide_forwarding=("frequencies",))
    outputs, _ = tb.run(tokens)
    assert outputs != expected  # stale read data: counts are lost
    assert outputs[7] < 4


def test_eliding_is_safe_when_assertion_holds():
    """With strictly distinct consecutive tokens (and a block boundary
    that never re-reads a just-cleared slot), the elided design matches."""
    unit = block_frequencies_unit(block_size=4)
    tokens = [1, 2, 3, 4, 5, 6, 7, 8]
    expected = make_simulator(unit).run(tokens)
    tb = UnitTestbench(unit, elide_forwarding=("frequencies",))
    outputs, _ = tb.run(tokens)
    assert outputs == expected
