"""Decoding of assembled ISA programs into basic blocks.

Both executors run a program a basic block at a time. A program is
decoded once, on its first run (:attr:`repro.isa.Program.code`): every
instruction is checked against
:data:`~repro.isa.instructions.OPCODES`, the program is cut into basic
blocks, and each block is printed as one Python function, with its
opcode histograms counted alongside.

Leaders are instruction 0, every ``br``/``brnz``/``brz``/``intok``
target, and every instruction after a terminator (a branch, ``intok`` or
``halt``). A block runs from its leader up to the next leader, so
control enters it only at its head and leaves it only at its end:
running it whole is running its instructions one at a time. The SIMT
executor's min-PC reconvergence stays exact for the same reason: between
issues every lane sits at a leader, so no lane is inside the block the
warp issues at the minimum PC.

A block function ``run(r, m, it, out)`` takes one stream's registers,
lane memory, token iterator and output list, and returns the PC of the
next block; ``halt`` and running off the end return ``len(program)``.
"""

from collections import Counter

from ..lang.errors import FleetSimulationError
from .instructions import ALU_EXPRS, ALU_GLOBALS, MASK64, OPCODES, Operand

_TERMINATORS = frozenset(("br", "brnz", "brz", "intok", "halt"))
#: What ``next(it, EOF)`` returns once a stream is exhausted.
_EOF = object()


class Block:
    """One basic block: its function, its length, and its opcode
    histograms as ``(key, count)`` pairs in first-issue order."""

    __slots__ = ("run", "size", "scalar_counts", "simt_counts")

    def __init__(self, run, size, scalar_counts, simt_counts):
        self.run = run
        self.size = size
        self.scalar_counts = scalar_counts
        self.simt_counts = simt_counts


class Code:
    """A program decoded into basic blocks: ``blocks[pc]`` is the block
    led by ``pc``, ``None`` where no block starts."""

    __slots__ = ("program", "blocks", "_line_pcs")

    def __init__(self, program, blocks, line_pcs):
        self.program = program
        self.blocks = blocks
        self._line_pcs = line_pcs

    def op_counts(self, visits, *, simt):
        """The opcode histogram of a run that entered block ``pc``
        ``visits[pc]`` times. ``visits`` is in first-entry order, so the
        keys come out in first-issue order."""
        counts = Counter()
        for pc, times in visits.items():
            block = self.blocks[pc]
            pairs = block.simt_counts if simt else block.scalar_counts
            for key, count in pairs:
                counts[key] += count * times
        return counts

    def fault(self, exc):
        """The typed error for an ``IndexError`` out of a block function:
        a ``load`` or ``store`` outside lane memory."""
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        pc = self._line_pcs[tb.tb_lineno - 1]
        program = self.program
        instr = program.instrs[pc]
        regs = tb.tb_frame.f_locals["r"]
        address = sum(
            regs[v.value] if v.is_reg else v.value for v in instr.args[1:]
        )
        return FleetSimulationError(
            f"program {program.name!r}, pc {pc}: {instr.op} address "
            f"{address} is outside lane memory [0, {program.local_words})"
        )


def decode(program):
    """Check ``program`` and decode it into a :class:`Code`."""
    instrs = program.instrs
    n = len(instrs)
    leaders = {0}
    for pc, instr in enumerate(instrs):
        _check(program, pc, instr)
        if instr.op in _TERMINATORS:
            leaders.add(pc + 1)
            if instr.op != "halt":
                leaders.add(instr.args[-1])
    starts = sorted(pc for pc in leaders if pc < n)
    source = []
    line_pcs = []
    spans = list(zip(starts, starts[1:] + [n]))
    for start, stop in spans:
        source.append(f"def b{start}(r, m, it, out):")
        line_pcs.append(None)
        for pc in range(start, stop):
            for line in _print(instrs[pc], pc, n):
                source.append("    " + line)
                line_pcs.append(pc)
        if instrs[stop - 1].op not in _TERMINATORS:
            source.append(f"    return {stop}")
            line_pcs.append(None)
    namespace = dict(ALU_GLOBALS, EOF=_EOF)
    exec(compile("\n".join(source), f"<isa {program.name}>", "exec"),
         namespace)
    blocks = [None] * n
    for start, stop in spans:
        body = instrs[start:stop]
        blocks[start] = Block(
            namespace[f"b{start}"], stop - start,
            _histogram(body, simt=False), _histogram(body, simt=True),
        )
    return Code(program, blocks, line_pcs)


def _check(program, pc, instr):
    shape = OPCODES.get(instr.op)
    if shape is None:
        raise FleetSimulationError(
            f"program {program.name!r}, pc {pc}: unknown opcode "
            f"{instr.op!r}"
        )
    if len(instr.args) != len(shape) or not all(
        _fits(kind, arg, program) for kind, arg in zip(shape, instr.args)
    ):
        raise FleetSimulationError(
            f"program {program.name!r}, pc {pc}: {instr.op!r} takes "
            f"operands {shape}, got {instr.args!r}"
        )


def _fits(kind, arg, program):
    if kind == "alu":
        return arg in ALU_EXPRS
    if kind == "val":
        if not isinstance(arg, Operand):
            return False
        kind, arg = "reg" if arg.is_reg else "word", arg.value
    if type(arg) is not int:
        return False
    if kind == "reg":
        return 0 <= arg < program.n_regs
    if kind == "label":
        return 0 <= arg <= len(program)
    if kind == "word":
        return 0 <= arg <= MASK64
    return True  # imm: li masks it to 64 bits


def _value(operand):
    return f"r[{operand.value}]" if operand.is_reg else str(operand.value)


def _address(base, off):
    terms = [_value(v) for v in (base, off) if v.is_reg or v.value]
    return " + ".join(terms) or "0"


def _print(instr, pc, n):
    """Source lines for one instruction; terminators return the next
    PC."""
    op, args = instr.op, instr.args
    if op == "li":
        return [f"r[{args[0]}] = {args[1] & MASK64}"]
    if op == "mov":
        return [f"r[{args[0]}] = r[{args[1]}]"]
    if op == "bin":
        alu, rd, a, b = args
        return [f"r[{rd}] = "
                + ALU_EXPRS[alu].format(a=_value(a), b=_value(b))]
    if op == "load":
        return [f"r[{args[0]}] = m[{_address(args[1], args[2])}]"]
    if op == "store":
        return [f"m[{_address(args[1], args[2])}] = {_value(args[0])}"]
    if op == "outtok":
        return [f"out.append({_value(args[0])})"]
    if op == "br":
        return [f"return {args[0]}"]
    if op == "brnz":
        return [f"return {args[1]} if {_value(args[0])} else {pc + 1}"]
    if op == "brz":
        return [f"return {pc + 1} if {_value(args[0])} else {args[1]}"]
    if op == "intok":
        return ["t = next(it, EOF)", "if t is EOF:",
                f"    return {args[1]}", f"r[{args[0]}] = t",
                f"return {pc + 1}"]
    return [f"return {n}"]  # halt


def _histogram(instrs, *, simt):
    """Opcode counts as ``(key, count)`` pairs in first-issue order.
    ``bin`` counts as ``mul_alu`` for a multiply. The scalar executor
    counts ``halt`` in its steps but not here, and names ``brnz``/``brz``
    as ``br``; SIMT counts every opcode under its own name."""
    counts = {}
    for instr in instrs:
        key = instr.op
        if key == "bin":
            key = "mul_alu" if instr.args[0] == "mul" else "bin"
        elif not simt and key in ("brnz", "brz"):
            key = "br"
        elif not simt and key == "halt":
            continue
        counts[key] = counts.get(key, 0) + 1
    return tuple(counts.items())
