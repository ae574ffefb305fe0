"""A small register-machine ISA for the CPU/GPU baseline implementations.

The paper's CPU (C) and GPU (CUDA) baselines "use the same token-based
processing model and algorithms" as the Fleet versions. We make that
comparison concrete: each application is written once in this ISA, and

* the scalar executor (:mod:`repro.isa.scalar`) runs one stream and counts
  dynamically executed instructions — the CPU cost model's input;
* the SIMT executor (:mod:`repro.isa.simt`) runs 32 streams in lockstep
  with per-lane masks — warp-level issue counts expose exactly the
  control-flow divergence the paper blames for GPU losses.

The ISA is deliberately minimal: 64-bit unsigned registers, a per-lane
local memory, branches, and stream input/output instructions that mirror
Fleet's token interface.
"""

from ..lang.ast import Frozen

#: How constructors assign fields: instances reject attribute writes.
_init = object.__setattr__

MASK64 = (1 << 64) - 1

#: opcode -> operand shape; the decoder (:mod:`repro.isa.decode`) checks
#: every instruction against it.
OPCODES = {
    "li": ("reg", "imm"),
    "mov": ("reg", "reg"),
    "bin": ("alu", "reg", "val", "val"),
    "load": ("reg", "val", "val"),  # rd = mem[base + off]
    "store": ("val", "val", "val"),  # mem[base + off] = value
    "br": ("label",),
    "brnz": ("val", "label"),
    "brz": ("val", "label"),
    "intok": ("reg", "label"),  # rd = next token, or jump at EOF
    "outtok": ("val",),
    "halt": (),
}

#: ALU semantics, written once as Python expressions over the operands
#: ``{a}`` and ``{b}``: :data:`ALU_OPS` evaluates them as functions and
#: the decoder prints them inline into block functions.
ALU_EXPRS = {
    "add": "({a} + {b}) & MASK64",
    "sub": "({a} - {b}) & MASK64",
    "mul": "({a} * {b}) & MASK64",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 63)) & MASK64",
    "shr": "{a} >> ({b} & 63)",
    "eq": "1 if {a} == {b} else 0",
    "ne": "1 if {a} != {b} else 0",
    "lt": "1 if {a} < {b} else 0",
    "le": "1 if {a} <= {b} else 0",
    "gt": "1 if {a} > {b} else 0",
    "ge": "1 if {a} >= {b} else 0",
    # Bit length of the first operand (x86 BSR / CUDA __clz); the second
    # operand is ignored. Used by the integer-coding width search.
    "blen": "({a}).bit_length()",
}

#: Names the expressions in :data:`ALU_EXPRS` may use.
ALU_GLOBALS = {"MASK64": MASK64}

ALU_OPS = {
    name: eval(f"lambda a, b: {expr.format(a='a', b='b')}", dict(ALU_GLOBALS))
    for name, expr in ALU_EXPRS.items()
}


class Instr(Frozen):
    """One instruction; operands are register indices, immediates, or
    label targets (resolved to instruction indices at assembly)."""

    __slots__ = ("op", "args")

    def __init__(self, op, args):
        _init(self, "op", op)
        _init(self, "args", tuple(args))

    def __repr__(self):
        return f"Instr({self.op}, {self.args})"


class Operand(Frozen):
    """Either a register index or an immediate."""

    __slots__ = ("is_reg", "value")

    def __init__(self, is_reg, value):
        _init(self, "is_reg", is_reg)
        _init(self, "value", value)

    def __repr__(self):
        return f"r{self.value}" if self.is_reg else f"#{self.value}"


#: Cycle weights for the performance models: memory operations and
#: multiplies cost more than simple ALU operations on both platforms.
DEFAULT_WEIGHTS = {
    "load": 2.0,
    "store": 2.0,
    "mul_alu": 2.0,
    "default": 1.0,
}


def weighted_cycles(op_counts, weights=DEFAULT_WEIGHTS):
    """Convert an opcode histogram to weighted cycle counts."""
    total = 0.0
    for op, count in op_counts.items():
        total += count * weights.get(op, weights["default"])
    return total
