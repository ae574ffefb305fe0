"""Compiled-RTL structure and the paper's II = 1 guarantee."""

from repro.apps import block_frequencies_unit, identity_unit
from repro.compiler import UnitTestbench, compile_unit
from repro.interp import make_simulator
from repro.lang import UnitBuilder


def test_io_interface_complete():
    module = compile_unit(identity_unit())
    input_names = {sig.name for sig in module.inputs}
    output_names = {sig.name for sig in module.outputs}
    assert input_names == {
        "input_token", "input_valid", "output_ready", "input_finished"
    }
    assert output_names == {
        "output_valid", "output_token", "input_ready", "output_finished"
    }


def test_port_widths_match_token_sizes():
    b = UnitBuilder("w", input_width=4, output_width=12)
    b.emit(b.cat(b.input, b.input, b.input))
    module = compile_unit(b.finish())
    token_in = next(s for s in module.inputs if s.name == "input_token")
    token_out = next(s for s in module.outputs if s.name == "output_token")
    assert token_in.width == 4
    assert token_out.width == 12


def test_forwarding_registers_created_per_written_bram():
    module = compile_unit(block_frequencies_unit(block_size=4))
    names = {spec.q.name for spec in module.regs}
    assert "b_frequencies_last_addr" in names
    assert "b_frequencies_last_data" in names


def test_forwarding_elision():
    module = compile_unit(
        block_frequencies_unit(block_size=4),
        elide_forwarding=("frequencies",),
    )
    names = {spec.q.name for spec in module.regs}
    assert "b_frequencies_last_addr" not in names


def test_read_only_bram_needs_no_forwarding():
    b = UnitBuilder("ro", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    b.emit(m[b.input.bits(3, 0)])
    module = compile_unit(b.finish())
    names = {spec.q.name for spec in module.regs}
    assert not any("last_addr" in n for n in names)


def test_one_virtual_cycle_per_real_cycle():
    """The paper's central throughput guarantee (Section 4): absent IO
    stalls, cycles == total virtual cycles (+1 for output_finished)."""
    unit = block_frequencies_unit(block_size=10)
    tokens = list(range(100)) * 2
    sim = make_simulator(unit)
    sim.run(tokens)
    tb = UnitTestbench(unit)
    outputs, cycles = tb.run(tokens)
    assert outputs == sim.outputs
    assert cycles == sim.trace.total_vcycles + 1


def test_identity_initiation_interval_is_one():
    unit = identity_unit()
    tb = UnitTestbench(unit)
    tokens = list(range(200))
    outputs, cycles = tb.run(tokens)
    assert outputs == tokens
    assert cycles == len(tokens) + 2  # pipeline fill + finished flag


def _loop_guard_reads_bram(nested):
    """``while (m[0] != 0) n := n + 1`` or, ``nested``,
    ``if (m[0] > 4) { while (n < 3) n := n + 1 }``; each token then
    stores itself to ``m[0]`` and the unit emits ``n``."""
    b = UnitBuilder("guard_reads", input_width=4, output_width=4)
    m = b.bram("m", elements=4, width=4)
    n = b.reg("n", width=4)
    if nested:
        with b.when(m[0] > 4):
            with b.while_(n < 3):
                n.set(n + 1)
    else:
        with b.while_(m[0] != n):
            n.set(n + 1)
    m[0] = b.input
    b.emit(n)
    with b.when(b.input.bit(0)):
        n.set(0)
    return b.finish()


def test_loop_guard_reading_bram_compiles():
    # while_done needs the forwarded read data: it is built after the
    # read-data wires, and there is no next-cycle while_done.
    for nested in (False, True):
        unit = _loop_guard_reads_bram(nested)
        module = compile_unit(unit)
        names = {sig.name for sig, _value in module.wires}
        assert "while_done" in names and "while_done_n" not in names
        tokens = [5, 6, 1, 9, 0, 7, 8, 3, 15, 4]
        sim = make_simulator(unit)
        sim.run(tokens)
        outputs, _cycles = UnitTestbench(unit).run(tokens)
        assert outputs == sim.outputs
