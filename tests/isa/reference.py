"""Per-instruction reference executors for the baseline ISA.

These are the step-at-a-time loops the block executors in
:mod:`repro.isa.scalar` and :mod:`repro.isa.simt` replaced: one
instruction per step, the opcode picked by string compares, and, for
SIMT, the instruction at the minimum PC issued to the lanes at that PC.
The differential tests require the block executors to match them on
outputs, step and issue counts, opcode histograms (key order included)
and divergence factors.
"""

from collections import Counter

from repro.isa import ALU_OPS, ScalarResult, SimtResult
from repro.isa.instructions import MASK64
from repro.lang import FleetSimulationError


def _address(program, pc, base, off):
    addr = base + off
    if not 0 <= addr < program.local_words:
        raise FleetSimulationError(
            f"program {program.name!r}, pc {pc}: address {addr} is "
            f"outside lane memory"
        )
    return addr


def run_scalar(program, tokens, *, max_steps=500_000_000):
    instrs = program.instrs
    regs = [0] * program.n_regs
    memory = [0] * program.local_words
    outputs = []
    counts = Counter()
    pos = 0
    pc = 0
    steps = 0
    n = len(instrs)

    def value(operand):
        return regs[operand.value] if operand.is_reg else operand.value

    while pc < n:
        instr = instrs[pc]
        op = instr.op
        args = instr.args
        steps += 1
        if steps > max_steps:
            raise FleetSimulationError(
                f"program {program.name!r} exceeded {max_steps} steps"
            )
        at = pc
        pc += 1
        if op == "bin":
            alu, rd, a, b = args
            regs[rd] = ALU_OPS[alu](value(a), value(b))
            counts["mul_alu" if alu == "mul" else "bin"] += 1
        elif op == "li":
            regs[args[0]] = args[1] & MASK64
            counts["li"] += 1
        elif op == "mov":
            regs[args[0]] = regs[args[1]]
            counts["mov"] += 1
        elif op == "load":
            addr = _address(program, at, value(args[1]), value(args[2]))
            regs[args[0]] = memory[addr]
            counts["load"] += 1
        elif op == "store":
            addr = _address(program, at, value(args[1]), value(args[2]))
            memory[addr] = value(args[0])
            counts["store"] += 1
        elif op == "br":
            pc = args[0]
            counts["br"] += 1
        elif op == "brnz":
            if value(args[0]):
                pc = args[1]
            counts["br"] += 1
        elif op == "brz":
            if not value(args[0]):
                pc = args[1]
            counts["br"] += 1
        elif op == "intok":
            if pos < len(tokens):
                regs[args[0]] = tokens[pos]
                pos += 1
            else:
                pc = args[1]
            counts["intok"] += 1
        elif op == "outtok":
            outputs.append(value(args[0]))
            counts["outtok"] += 1
        elif op == "halt":
            break
        else:
            raise FleetSimulationError(f"unknown opcode {op!r}")
    return ScalarResult(outputs, counts, steps)


class _Lane:
    __slots__ = ("regs", "memory", "pos", "pc", "active", "outputs",
                 "steps", "tokens")

    def __init__(self, program, tokens):
        self.regs = [0] * program.n_regs
        self.memory = [0] * program.local_words
        self.tokens = tokens
        self.pos = 0
        self.pc = 0
        self.active = True
        self.outputs = []
        self.steps = 0


def run_simt(program, streams, *, max_issues=500_000_000):
    instrs = program.instrs
    n = len(instrs)
    lanes = [_Lane(program, tokens) for tokens in streams]
    warp_issues = 0
    counts = Counter()

    while True:
        current = [lane for lane in lanes if lane.active]
        if not current:
            break
        pc = min(lane.pc for lane in current)
        if pc >= n:
            for lane in current:
                if lane.pc >= n:
                    lane.active = False
            continue
        instr = instrs[pc]
        op = instr.op
        args = instr.args
        warp_issues += 1
        if op == "bin" and args[0] == "mul":
            counts["mul_alu"] += 1
        else:
            counts["bin" if op == "bin" else op] += 1
        if warp_issues > max_issues:
            raise FleetSimulationError(f"warp exceeded {max_issues} issues")
        for lane in current:
            if lane.pc != pc:
                continue
            lane.steps += 1
            lane.pc += 1
            regs = lane.regs

            def value(operand, regs=regs):
                return (
                    regs[operand.value] if operand.is_reg
                    else operand.value
                )

            if op == "bin":
                alu, rd, a, b = args
                regs[rd] = ALU_OPS[alu](value(a), value(b))
            elif op == "li":
                regs[args[0]] = args[1] & MASK64
            elif op == "mov":
                regs[args[0]] = regs[args[1]]
            elif op == "load":
                addr = _address(program, pc, value(args[1]), value(args[2]))
                regs[args[0]] = lane.memory[addr]
            elif op == "store":
                addr = _address(program, pc, value(args[1]), value(args[2]))
                lane.memory[addr] = value(args[0])
            elif op == "br":
                lane.pc = args[0]
            elif op == "brnz":
                if value(args[0]):
                    lane.pc = args[1]
            elif op == "brz":
                if not value(args[0]):
                    lane.pc = args[1]
            elif op == "intok":
                if lane.pos < len(lane.tokens):
                    regs[args[0]] = lane.tokens[lane.pos]
                    lane.pos += 1
                else:
                    lane.pc = args[1]
            elif op == "outtok":
                lane.outputs.append(value(args[0]))
            elif op == "halt":
                lane.active = False
            else:
                raise FleetSimulationError(f"unknown opcode {op!r}")
    return SimtResult(
        [lane.outputs for lane in lanes],
        warp_issues,
        [lane.steps for lane in lanes],
        counts,
    )
