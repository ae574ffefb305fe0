"""Assembler/builder for ISA programs.

Registers are named strings allocated on first use; labels are forward-
referenced freely and resolved at :meth:`ProgramBuilder.assemble`.
Convenience emitters exist for every opcode, plus small macros
(``add``/``eq``/... wrappers around ``bin``).
"""

from ..lang.ast import Frozen
from .decode import decode
from .instructions import ALU_OPS, MASK64, Instr, Operand, _init


class Program(Frozen):
    """An assembled program. It is immutable, so the basic blocks it is
    decoded into on its first run (:attr:`code`) never go stale."""

    __slots__ = ("name", "instrs", "n_regs", "local_words", "source_lines",
                 "_code")

    def __init__(self, name, instrs, n_regs, local_words, source_lines):
        _init(self, "name", name)
        _init(self, "instrs", tuple(instrs))
        _init(self, "n_regs", n_regs)
        _init(self, "local_words", local_words)
        #: builder-call count, the Figure 8 lines-of-code proxy for the
        #: CUDA/C implementations.
        _init(self, "source_lines", source_lines)
        _init(self, "_code", None)

    @property
    def code(self):
        """The program decoded into basic blocks
        (:class:`repro.isa.decode.Code`), computed on first use."""
        if self._code is None:
            _init(self, "_code", decode(self))
        return self._code

    def __len__(self):
        return len(self.instrs)

    def __repr__(self):
        return f"Program({self.name!r}, {len(self.instrs)} instrs)"


class ProgramBuilder:
    """Builds a :class:`Program`."""

    def __init__(self, name, *, local_words=65536):
        self.name = name
        self.local_words = local_words
        self._instrs = []
        self._regs = {}
        self._labels = {}
        self._lines = 0

    # -- operands -----------------------------------------------------------
    def reg(self, name):
        """Register index for ``name`` (allocated on first use)."""
        if name not in self._regs:
            self._regs[name] = len(self._regs)
        return self._regs[name]

    def _val(self, operand):
        if isinstance(operand, str):
            return Operand(True, self.reg(operand))
        if isinstance(operand, int):
            if not 0 <= operand <= MASK64:
                raise ValueError(
                    f"immediate {operand} is outside [0, 2**64)"
                )
            return Operand(False, operand)
        raise TypeError(f"bad operand {operand!r}")

    # -- labels --------------------------------------------------------------
    def label(self, name):
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instrs)

    # -- emitters ---------------------------------------------------------------
    def _emit(self, op, *args):
        self._instrs.append(Instr(op, args))
        self._lines += 1

    def li(self, rd, imm):
        self._emit("li", self.reg(rd), imm)

    def mov(self, rd, rs):
        self._emit("mov", self.reg(rd), self.reg(rs))

    def bin(self, alu, rd, a, b):
        if alu not in ALU_OPS:
            raise ValueError(f"unknown ALU op {alu!r}")
        self._emit("bin", alu, self.reg(rd), self._val(a), self._val(b))

    def load(self, rd, base, off=0):
        self._emit("load", self.reg(rd), self._val(base), self._val(off))

    def store(self, value, base, off=0):
        self._emit("store", self._val(value), self._val(base),
                   self._val(off))

    def br(self, label):
        self._emit("br", label)

    def brnz(self, cond, label):
        self._emit("brnz", self._val(cond), label)

    def brz(self, cond, label):
        self._emit("brz", self._val(cond), label)

    def intok(self, rd, eof_label):
        self._emit("intok", self.reg(rd), eof_label)

    def outtok(self, value):
        self._emit("outtok", self._val(value))

    def halt(self):
        self._emit("halt")

    # ALU sugar.
    def add(self, rd, a, b):
        self.bin("add", rd, a, b)

    def sub(self, rd, a, b):
        self.bin("sub", rd, a, b)

    def mul(self, rd, a, b):
        self.bin("mul", rd, a, b)

    def and_(self, rd, a, b):
        self.bin("and", rd, a, b)

    def or_(self, rd, a, b):
        self.bin("or", rd, a, b)

    def xor(self, rd, a, b):
        self.bin("xor", rd, a, b)

    def shl(self, rd, a, b):
        self.bin("shl", rd, a, b)

    def shr(self, rd, a, b):
        self.bin("shr", rd, a, b)

    def eq(self, rd, a, b):
        self.bin("eq", rd, a, b)

    def ne(self, rd, a, b):
        self.bin("ne", rd, a, b)

    def lt(self, rd, a, b):
        self.bin("lt", rd, a, b)

    def le(self, rd, a, b):
        self.bin("le", rd, a, b)

    def gt(self, rd, a, b):
        self.bin("gt", rd, a, b)

    def ge(self, rd, a, b):
        self.bin("ge", rd, a, b)

    # -- assembly --------------------------------------------------------------
    def assemble(self):
        """Resolve labels and freeze the program."""
        resolved = []
        for instr in self._instrs:
            args = []
            for index, arg in enumerate(instr.args):
                is_alu_name = instr.op == "bin" and index == 0
                if isinstance(arg, str) and not is_alu_name:
                    if arg not in self._labels:
                        raise ValueError(
                            f"undefined label {arg!r} in {instr!r}"
                        )
                    arg = self._labels[arg]
                args.append(arg)
            resolved.append(Instr(instr.op, tuple(args)))
        return Program(
            self.name, resolved, len(self._regs), self.local_words,
            self._lines,
        )
