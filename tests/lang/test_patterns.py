"""The pattern library (the paper's hoped-for 'library code to simplify
common patterns')."""

import pytest

from repro.compiler import UnitTestbench
from repro.interp import make_simulator
from repro.lang import UnitBuilder
from repro.lang.patterns import (
    BlockCounter,
    BytePacker,
    WordAssembler,
    max_tree,
    min_tree,
    one_hot,
    popcount,
    saturating_add,
    saturating_sub,
)


def run_unit(unit, tokens):
    return make_simulator(unit).run(tokens)


class TestCombinators:
    def make(self):
        return UnitBuilder("t", input_width=8, output_width=8)

    def test_saturating_sub(self):
        b = self.make()
        b.emit(saturating_sub(b, b.input, 10))
        unit = b.finish()
        assert run_unit(unit, [3, 10, 50]) == [0, 0, 40, 0]

    def test_saturating_add(self):
        b = self.make()
        b.emit(saturating_add(b, b.input, 20, width=8))
        unit = b.finish()
        assert run_unit(unit, [5, 250])[:2] == [25, 255]

    def test_max_min_trees(self, rnd):
        b = self.make()
        regs = [b.reg(f"r{i}", width=8, init=v)
                for i, v in enumerate([17, 3, 250, 99, 42])]
        b.emit(max_tree(b, regs))
        unit = b.finish()
        assert run_unit(unit, [0])[0] == 250
        b = self.make()
        regs = [b.reg(f"r{i}", width=8, init=v)
                for i, v in enumerate([17, 3, 250, 99, 42])]
        b.emit(min_tree(b, regs))
        assert run_unit(b.finish(), [0])[0] == 3

    def test_trees_reject_empty(self):
        b = self.make()
        with pytest.raises(ValueError):
            max_tree(b, [])
        with pytest.raises(ValueError):
            min_tree(b, [])

    def test_popcount(self):
        b = self.make()
        b.emit(popcount(b, b.input))
        unit = b.finish()
        assert run_unit(unit, [0b10110101, 0, 255])[:3] == [5, 0, 8]

    def test_one_hot(self):
        b = self.make()
        b.emit(one_hot(b, b.input.bits(2, 0), 8))
        unit = b.finish()
        assert run_unit(unit, [0, 3, 7])[:3] == [1, 8, 128]


class TestWordAssembler:
    def build(self, word_bytes=4):
        b = UnitBuilder("asm", input_width=8, output_width=32)
        with b.when(b.not_(b.stream_finished)):
            asm = WordAssembler(b, "w", word_bytes=word_bytes)
            asm.step()
            with b.when(asm.word_ready):
                b.emit(asm.word)
        return b.finish()

    def test_little_endian_words(self):
        unit = self.build()
        data = list((0xDEADBEEF).to_bytes(4, "little"))
        data += list((0x12345678).to_bytes(4, "little"))
        assert run_unit(unit, data) == [0xDEADBEEF, 0x12345678]

    def test_partial_word_not_emitted(self):
        unit = self.build()
        assert run_unit(unit, [1, 2, 3]) == []

    def test_two_byte_words(self):
        unit = self.build(word_bytes=2)
        assert run_unit(unit, [0x34, 0x12]) == [0x1234]

    def test_double_step_rejected(self):
        b = UnitBuilder("bad", input_width=8, output_width=8)
        asm = WordAssembler(b, "w")
        asm.step()
        with pytest.raises(RuntimeError):
            asm.step()

    def test_use_before_step_rejected(self):
        b = UnitBuilder("bad", input_width=8, output_width=8)
        asm = WordAssembler(b, "w")
        with pytest.raises(RuntimeError):
            asm.word_ready

    def test_rtl_crosscheck(self, rnd):
        unit = self.build()
        data = [rnd.randrange(256) for _ in range(32)]
        expected = make_simulator(unit).run(data)
        outputs, _ = UnitTestbench(unit).run(data)
        assert outputs == expected


class TestBytePacker:
    def build_nibble_packer(self):
        """Packs the low nibble of every input byte; flushes at EOF.

        The canonical BytePacker driver: a while loop drains full bytes
        (and, once the stream has finished, the padded tail) before each
        insert, so the accumulator never holds 8+ bits at insert time.
        """
        b = UnitBuilder("packer", input_width=8, output_width=8)
        packer = BytePacker(b, "p", max_field_width=4)
        drain = b.any_of(
            packer.byte_ready,
            b.all_of(b.stream_finished, b.not_(packer.empty)),
        )
        with b.while_(drain):
            with b.when(packer.byte_ready):
                packer.emit_byte()
            with b.otherwise():
                packer.flush_byte()
        with b.when(b.not_(b.stream_finished)):
            packer.insert(b.input.bits(3, 0), b.const(4, 3))
        return b.finish()

    def test_nibbles_pack_two_per_byte(self):
        unit = self.build_nibble_packer()
        # low nibbles 1,2,3,4 -> bytes 0x21, 0x43
        out = run_unit(unit, [0xA1, 0xB2, 0xC3, 0xD4])
        assert out == [0x21, 0x43]

    def test_odd_tail_padded(self):
        unit = self.build_nibble_packer()
        out = run_unit(unit, [0xF5])
        assert out == [0x05]


class TestBlockCounter:
    def test_pulse_every_n_items(self):
        b = UnitBuilder("blk", input_width=8, output_width=8)
        counter = BlockCounter(b, "c", block_size=3)
        with b.when(b.not_(b.stream_finished)):
            done = counter.step()
            with b.when(done):
                b.emit(0xEE)
        unit = b.finish()
        out = run_unit(unit, [0] * 10)
        assert out == [0xEE] * 3
