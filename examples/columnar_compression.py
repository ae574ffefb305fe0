"""Columnar integer compression with the patched-frame coding unit.

A columnar database scenario: three integer columns with very different
value distributions are compressed column-by-column on replicated Fleet
units, decoded back on the host, and verified bit-exact — showing both
the codec's adaptivity (cheap widths for small values, exceptions for
outliers) and the hardware/golden/ISA three-way agreement.

Run with:

    python examples/columnar_compression.py
"""

import random

from repro.apps import int_coding_decode, int_coding_unit
from repro.baselines.apps.int_coding_isa import int_coding_program
from repro.interp import make_simulator
from repro.isa import ScalarExecutor


def make_columns(rnd, rows):
    return {
        "order_quantity": [rnd.randrange(1, 100) for _ in range(rows)],
        "timestamp_delta": [rnd.randrange(1 << 16) for _ in range(rows)],
        # mostly small with rare huge outliers: the exception mechanism
        "payment_cents": [
            rnd.randrange(1 << 30) if rnd.random() < 0.05
            else rnd.randrange(5_000)
            for _ in range(rows)
        ],
    }


def main():
    rnd = random.Random(2020)
    rows = 64  # multiple of the 4-integer block size
    columns = make_columns(rnd, rows)
    unit = int_coding_unit()
    program = int_coding_program()

    print(f"{'column':<18}{'raw B':>8}{'coded B':>9}{'ratio':>7}")
    for name, values in columns.items():
        raw = [b for v in values for b in v.to_bytes(4, "little")]
        sim = make_simulator(unit)
        encoded = sim.run(raw)

        # three-way agreement: hardware unit == CPU/GPU baseline program
        isa_encoded = ScalarExecutor(program).run(raw).outputs
        assert encoded == isa_encoded

        # and the host can decode it back bit-exactly
        decoded = int_coding_decode(encoded, rows // 4)
        assert decoded == values

        print(f"{name:<18}{len(raw):>8}{len(encoded):>9}"
              f"{len(raw) / len(encoded):>6.1f}x")

    print("\nall columns round-tripped; unit, golden model, and ISA "
          "baseline agree byte-for-byte")
    print("(the paper's Figure 7 runs this codec over uniform ranges "
          "[0,2^5)..[0,2^25) at 10.99 GB/s on 192 PUs)")


if __name__ == "__main__":
    main()
