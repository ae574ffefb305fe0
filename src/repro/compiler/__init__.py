"""The Fleet compiler: processing-unit programs to RTL (paper Section 4)."""

from .testbench import UnitTestbench
from .unit_compiler import compile_unit

__all__ = ["UnitTestbench", "compile_unit"]
