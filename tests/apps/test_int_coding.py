"""Integer coding: codec laws, the unit, and round-trips."""

import pytest

from repro.apps import (
    int_coding_decode,
    int_coding_reference,
    int_coding_unit,
)
from repro.interp import make_simulator


def encode_ints(ints):
    data = b"".join(x.to_bytes(4, "little") for x in ints)
    return list(data)


class TestGoldenCodec:
    @pytest.mark.parametrize("bits", [3, 5, 10, 15, 20, 25, 31, 32])
    def test_round_trip_all_ranges(self, rnd_factory, bits):
        rnd = rnd_factory(bits)
        ints = [rnd.randrange(1 << bits) for _ in range(32)]
        encoded = int_coding_reference(encode_ints(ints))
        assert int_coding_decode(encoded, 8) == ints

    def test_small_values_compress_well(self):
        ints = [1, 2, 3, 0] * 4
        encoded = int_coding_reference(encode_ints(ints))
        # 4 blocks x (1 header + 1 main byte) = 8 bytes for 64 input bytes
        assert len(encoded) == 8

    def test_incompressible_values_bounded_overhead(self, rnd):
        ints = [rnd.randrange(1 << 32) for _ in range(16)]
        encoded = int_coding_reference(encode_ints(ints))
        # worst case: width 32 -> 17 bytes per 16-byte block
        assert len(encoded) <= 17 * 4

    def test_exception_block_round_trips(self):
        # three small + one huge: a classic patched-frame case
        ints = [3, 1, 2, 0xFFFFFFFF]
        encoded = int_coding_reference(encode_ints(ints))
        assert int_coding_decode(encoded, 1) == ints
        assert len(encoded) < 17  # cheaper than the raw width-32 encoding

    def test_partial_block_dropped(self):
        data = encode_ints([1, 2, 3, 4, 5])  # 1 extra int
        encoded = int_coding_reference(data)
        assert int_coding_decode(encoded, 1) == [1, 2, 3, 4]

    def test_mixed_modes_appear(self, rnd):
        # exceptions exist in both varbyte-cheaper and fixed-cheaper
        # flavors across random blocks
        modes = set()
        for seed in range(40):
            import random as _r

            r = _r.Random(seed)
            ints = [
                r.randrange(1 << r.choice((4, 28, 31))) for _ in range(4)
            ]
            encoded = int_coding_reference(encode_ints(ints))
            header = encoded[0]
            if header & 0xF:
                modes.add(encoded[1] >> 7)
        assert modes == {0, 1}


class TestUnit:
    @pytest.mark.parametrize("bits", [5, 15, 25, 32])
    def test_unit_matches_reference(self, rnd_factory, bits):
        rnd = rnd_factory(100 + bits)
        data = encode_ints([rnd.randrange(1 << bits) for _ in range(12)])
        unit = int_coding_unit()
        assert make_simulator(unit).run(data) == int_coding_reference(data)

    def test_unit_output_decodes(self, rnd):
        ints = [rnd.randrange(1 << 18) for _ in range(8)]
        unit = int_coding_unit()
        out = make_simulator(unit).run(encode_ints(ints))
        assert int_coding_decode(out, 2) == ints

    def test_compression_ratio_varies_with_range(self, rnd_factory):
        unit = int_coding_unit()
        sizes = {}
        for bits in (5, 25):
            rnd = rnd_factory(bits)
            data = encode_ints(
                [rnd.randrange(1 << bits) for _ in range(20)]
            )
            sim = make_simulator(unit)
            sizes[bits] = len(sim.run(data))
        assert sizes[5] < sizes[25]
