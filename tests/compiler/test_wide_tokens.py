"""Non-byte token widths through the whole stack."""

from repro.apps import identity_unit
from repro.compiler import UnitTestbench
from repro.interp import make_simulator
from repro.lang import UnitBuilder


def test_sixteen_bit_identity(rnd):
    unit = identity_unit(token_width=16)
    tokens = [rnd.randrange(1 << 16) for _ in range(50)]
    expected = make_simulator(unit).run(tokens)
    outputs, cycles = UnitTestbench(unit).run(tokens)
    assert outputs == expected == tokens
    assert cycles == len(tokens) + 2


def test_four_bit_tokens_with_wide_output(rnd):
    """4-bit input tokens, 12-bit output tokens: widths are independent."""
    b = UnitBuilder("widen", input_width=4, output_width=12)
    acc = b.reg("acc", width=12, init=0)
    with b.when(b.not_(b.stream_finished)):
        value = b.cat(acc.bits(7, 0), b.input)
        acc.set(value)
        b.emit(value)
    unit = b.finish()
    tokens = [rnd.randrange(16) for _ in range(30)]
    expected = make_simulator(unit).run(tokens)
    outputs, _ = UnitTestbench(unit).run(tokens)
    assert outputs == expected


def test_one_bit_stream():
    """Bit-serial processing: 1-bit tokens, emits on rising edges."""
    b = UnitBuilder("edges", input_width=1, output_width=8)
    prev = b.reg("prev", width=1, init=0)
    count = b.reg("count", width=8, init=0)
    with b.when(b.not_(b.stream_finished)):
        rising = b.all_of(prev == 0, b.input == 1)
        with b.when(rising):
            b.emit(count + 1)
        count.set(b.mux(rising, count + 1, count))
        prev.set(b.input)
    unit = b.finish()
    bits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
    expected = make_simulator(unit).run(bits)
    assert expected == [1, 2, 3]
    outputs, _ = UnitTestbench(unit).run(bits)
    assert outputs == expected
