"""Quickstart: write a Fleet processing unit, simulate it, compile it to
RTL, cross-check the hardware, and look at the Verilog.

This is the paper's Figure 3 example — a per-block frequency counter —
written with the library's public API. Run with:

    python examples/quickstart.py
"""

import random

from repro.compiler import UnitTestbench, compile_unit
from repro.interp import make_simulator
from repro.lang import UnitBuilder
from repro.rtl import emit_verilog


def build_histogram_unit(block_size=100):
    """A unit that emits a 256-entry histogram for every block of
    ``block_size`` bytes (paper Figure 3)."""
    b = UnitBuilder("block_frequencies", input_width=8, output_width=8)
    item_counter = b.reg("item_counter", width=7, init=0)
    frequencies = b.bram("frequencies", elements=256, width=8)
    idx = b.reg("frequencies_idx", width=9, init=0)

    with b.when(item_counter == block_size):  # emit frequencies
        with b.while_(idx < 256):
            b.emit(frequencies[idx])
            frequencies[idx] = 0
            idx.set(idx + 1)
        idx.set(0)
    # process the current input token
    frequencies[b.input] = frequencies[b.input] + 1
    item_counter.set(
        b.mux(item_counter == block_size, 1, item_counter + 1)
    )
    return b.finish()


def main():
    unit = build_histogram_unit()
    print(f"built unit: {unit}")

    # 1. Functional simulation. make_simulator runs the certified
    #    compiled engine, or the interpreter (which checks the paper's
    #    restrictions — one BRAM read/write, one emit per virtual cycle —
    #    dynamically) when the unit does not certify.
    rnd = random.Random(7)
    tokens = [rnd.randrange(256) for _ in range(300)]
    sim = make_simulator(unit)
    outputs = sim.run(tokens)
    print(f"functional sim: {len(tokens)} tokens in, "
          f"{len(outputs)} histogram entries out "
          f"({sim.trace.total_vcycles} virtual cycles)")
    assert outputs[tokens[0]] >= 1  # the first byte was counted

    # 2. Compile to RTL (the paper's Section 4 algorithm: two-stage
    #    virtual-cycle pipeline, ready-valid handshakes, BRAM forwarding).
    module = compile_unit(unit)
    print(f"compiled RTL: {module}")

    # 3. Cycle-accurate cross-check: same outputs, one virtual cycle per
    #    real cycle — the paper's central throughput guarantee.
    tb = UnitTestbench(unit)
    rtl_outputs, cycles = tb.run(tokens)
    assert rtl_outputs == outputs
    print(f"RTL cross-check OK: {cycles} cycles for "
          f"{sim.trace.total_vcycles} virtual cycles (II = 1)")

    # ... and it still matches under arbitrary memory stalls:
    stalled, stalled_cycles = tb.run(
        tokens, input_stall=lambda c: c % 3 == 0
    )
    assert stalled == outputs
    print(f"with input stalls: same outputs in {stalled_cycles} cycles")

    # 4. Inspect the generated Verilog.
    verilog = emit_verilog(module)
    print("\n--- generated Verilog (first 25 lines) ---")
    print("\n".join(verilog.splitlines()[:25]))


if __name__ == "__main__":
    main()
