"""Register-machine ISA, scalar executor (CPU baseline engine), and SIMT
executor (GPU baseline engine). Both executors run a program a basic
block at a time (:mod:`repro.isa.decode`)."""

from .instructions import (
    ALU_OPS,
    DEFAULT_WEIGHTS,
    Instr,
    OPCODES,
    weighted_cycles,
)
from .program import Program, ProgramBuilder
from .scalar import ScalarExecutor, ScalarResult
from .simt import WARP_SIZE, SimtExecutor, SimtResult

__all__ = [
    "ALU_OPS",
    "DEFAULT_WEIGHTS",
    "Instr",
    "OPCODES",
    "Program",
    "ProgramBuilder",
    "ScalarExecutor",
    "ScalarResult",
    "SimtExecutor",
    "SimtResult",
    "WARP_SIZE",
    "weighted_cycles",
]
