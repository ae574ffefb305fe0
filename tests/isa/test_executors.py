"""The baseline ISA: assembler, scalar executor, SIMT executor."""

import pytest

from repro.isa import (
    Instr,
    Program,
    ProgramBuilder,
    ScalarExecutor,
    SimtExecutor,
)
from repro.isa.instructions import Operand
from repro.lang import FleetSimulationError


def echo_program():
    p = ProgramBuilder("echo", local_words=8)
    p.label("loop")
    p.intok("x", "eof")
    p.outtok("x")
    p.br("loop")
    p.label("eof")
    p.halt()
    return p.assemble()


class TestAssembler:
    def test_undefined_label_rejected(self):
        p = ProgramBuilder("bad")
        p.br("nowhere")
        with pytest.raises(ValueError, match="nowhere"):
            p.assemble()

    def test_duplicate_label_rejected(self):
        p = ProgramBuilder("bad")
        p.label("x")
        with pytest.raises(ValueError):
            p.label("x")

    def test_alu_names_not_confused_with_labels(self):
        p = ProgramBuilder("ok")
        p.label("shl")  # a label that shadows an ALU name
        p.shl("a", "a", 1)
        p.br("shl")
        program = p.assemble()
        assert isinstance(program, Program)

    def test_unknown_alu_rejected(self):
        p = ProgramBuilder("bad")
        with pytest.raises(ValueError):
            p.bin("frobnicate", "a", "b", "c")

    def test_registers_allocated_by_name(self):
        p = ProgramBuilder("regs")
        p.li("a", 1)
        p.li("b", 2)
        p.li("a", 3)
        assert p.assemble().n_regs == 2

    @pytest.mark.parametrize("imm", [-1, 1 << 64])
    def test_immediates_outside_64_bits_rejected(self, imm):
        p = ProgramBuilder("bad", local_words=4)
        with pytest.raises(ValueError, match="immediate"):
            p.load("x", 0, imm)

    def test_program_is_frozen(self):
        program = echo_program()
        instr = program.instrs[0]
        operand = program.instrs[1].args[0]
        assert isinstance(program.instrs, tuple)
        assert isinstance(operand, Operand)
        for obj, field in ((program, "name"), (program, "instrs"),
                           (instr, "op"), (instr, "args"),
                           (operand, "value")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)


class TestDecoder:
    """Programs are checked against OPCODES when first run, not when
    built."""

    @pytest.mark.parametrize("executor", [
        lambda program: ScalarExecutor(program).run([]),
        lambda program: SimtExecutor(program).run([[]]),
    ])
    def test_unknown_opcode(self, executor):
        program = Program("bad", [Instr("li", (0, 1)), Instr("frob", ())],
                          1, 4, 2)
        with pytest.raises(FleetSimulationError,
                           match="'bad', pc 1: unknown opcode 'frob'"):
            executor(program)

    @pytest.mark.parametrize("instr", [
        Instr("br", ()),
        Instr("br", (3,)),  # past the end of the program
        Instr("mov", (0, 1)),  # register 1 of 1
        Instr("outtok", (5,)),  # an int, not an Operand
        Instr("outtok", (Operand(False, -1),)),
        Instr("bin", ("frob", 0, Operand(True, 0), Operand(True, 0))),
    ])
    def test_operand_shape(self, instr):
        program = Program("bad", [Instr("li", (0, 1)), instr], 1, 4, 2)
        with pytest.raises(FleetSimulationError,
                           match=f"'bad', pc 1: '{instr.op}' takes"):
            ScalarExecutor(program).run([])


def memory_fault_program(op):
    p = ProgramBuilder("oob", local_words=4)
    p.li("x", 1)
    p.intok("i", "end")
    if op == "load":
        p.load("x", "i", 1)
    else:
        p.store("x", "i", 1)
    p.outtok("x")
    p.label("end")
    return p.assemble()


class TestScalar:
    def test_echo(self):
        result = ScalarExecutor(echo_program()).run([1, 2, 3])
        assert result.outputs == [1, 2, 3]

    def test_op_counts_by_category(self):
        p = ProgramBuilder("count")
        p.li("a", 1)
        p.mul("a", "a", 7)
        p.add("a", "a", 1)
        p.store("a", 0)
        p.load("b", 0)
        p.halt()
        result = ScalarExecutor(p.assemble()).run([])
        assert result.op_counts["mul_alu"] == 1
        assert result.op_counts["bin"] == 1
        assert result.op_counts["load"] == 1
        assert result.op_counts["store"] == 1

    def test_blen_op(self):
        p = ProgramBuilder("bl")
        p.li("a", 0b10110)
        p.bin("blen", "b", "a", 0)
        p.outtok("b")
        p.halt()
        assert ScalarExecutor(p.assemble()).run([]).outputs == [5]

    def test_runaway_detected(self):
        p = ProgramBuilder("spin")
        p.label("loop")
        p.br("loop")
        program = p.assemble()
        with pytest.raises(FleetSimulationError):
            ScalarExecutor(program, max_steps=1000).run([])

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_memory_fault(self, op):
        program = memory_fault_program(op)
        assert ScalarExecutor(program).run([2]).outputs == [
            0 if op == "load" else 1
        ]
        with pytest.raises(FleetSimulationError,
                           match=f"'oob', pc 2: {op} address 4 "):
            ScalarExecutor(program).run([3])

    def test_branch_semantics(self):
        p = ProgramBuilder("br")
        p.intok("x", "done")
        p.brz("x", "zero")
        p.outtok(1)
        p.br("done")
        p.label("zero")
        p.outtok(0)
        p.label("done")
        p.halt()
        program = p.assemble()
        assert ScalarExecutor(program).run([5]).outputs == [1]
        assert ScalarExecutor(program).run([0]).outputs == [0]


class TestSimt:
    def test_lanes_isolated(self):
        result = SimtExecutor(echo_program()).run([[1, 2], [3], [4, 5, 6]])
        assert result.outputs == [[1, 2], [3], [4, 5, 6]]

    def test_identical_streams_fully_converged(self):
        result = SimtExecutor(echo_program()).run([[7, 8, 9]] * 8)
        assert result.divergence_factor == pytest.approx(1.0)

    def test_different_lengths_diverge_at_tail(self):
        result = SimtExecutor(echo_program()).run([[1] * 10, [1] * 5])
        assert result.divergence_factor > 1.0

    def test_data_dependent_branch_divergence(self):
        p = ProgramBuilder("div")
        p.label("loop")
        p.intok("x", "eof")
        p.brz("x", "zero")
        # a deliberately long taken-path
        for _ in range(10):
            p.add("y", "y", 1)
        p.br("loop")
        p.label("zero")
        p.sub("y", "y", 1)
        p.br("loop")
        p.label("eof")
        p.halt()
        program = p.assemble()
        converged = SimtExecutor(program).run([[1, 1, 1, 1]] * 2)
        diverged = SimtExecutor(program).run([[1, 1, 1, 1], [0, 0, 0, 0]])
        assert diverged.warp_issues > converged.warp_issues

    def test_runaway_detected(self):
        p = ProgramBuilder("spin")
        p.intok("x", "done")
        p.label("loop")
        p.br("loop")
        p.label("done")
        program = p.assemble()
        assert SimtExecutor(program, max_issues=1000).run([[]] * 4).outputs \
            == [[]] * 4
        with pytest.raises(FleetSimulationError, match="1000 issues"):
            SimtExecutor(program, max_issues=1000).run([[], [1]])

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_memory_fault(self, op):
        program = memory_fault_program(op)
        with pytest.raises(FleetSimulationError,
                           match=f"'oob', pc 2: {op} address 4 "):
            SimtExecutor(program).run([[0], [3], []])

    def test_halt_and_fall_off_end(self):
        """Lanes that halt and lanes that run off the program end leave
        the warp the same way; the rest run on."""
        p = ProgramBuilder("exit")
        p.label("loop")
        p.intok("x", "off")
        p.brz("x", "halt")
        p.outtok("x")
        p.br("loop")
        p.label("halt")
        p.halt()
        p.label("off")
        p.outtok(7)
        program = p.assemble()
        result = SimtExecutor(program).run([[0], [1], [2, 3], []])
        assert result.outputs == [[], [1, 7], [2, 3, 7], [7]]
        assert result.lane_steps == [3, 6, 10, 2]
        assert result.warp_issues == 11
        assert result.op_counts["halt"] == 1

    def test_warp_size_limit(self):
        with pytest.raises(FleetSimulationError):
            SimtExecutor(echo_program()).run([[1]] * 33)

    def test_lane_step_accounting(self):
        result = SimtExecutor(echo_program()).run([[1], [2]])
        assert result.lane_steps[0] == result.lane_steps[1]
        assert result.warp_issues == result.lane_steps[0]
