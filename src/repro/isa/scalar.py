"""Scalar execution of ISA programs — the CPU baseline's engine.

Runs one program over one token stream, producing the output stream and a
dynamic-instruction histogram. The CPU performance model
(:mod:`repro.baselines.cpu`) converts the histogram into cycles; the
*outputs* are cross-checked against the golden models and the Fleet units
by the test suite, so the baselines demonstrably compute the same thing.
"""

from collections import defaultdict

from ..lang.errors import FleetSimulationError


class ScalarResult:
    def __init__(self, outputs, op_counts, steps):
        self.outputs = outputs
        self.op_counts = op_counts
        self.steps = steps

    def __repr__(self):
        return f"ScalarResult({len(self.outputs)} out, {self.steps} instrs)"


class ScalarExecutor:
    """Executes one stream to completion, a basic block at a time
    (:mod:`repro.isa.decode`)."""

    def __init__(self, program, *, max_steps=500_000_000):
        self.program = program
        self.max_steps = max_steps

    def run(self, tokens):
        program = self.program
        code = program.code
        blocks = code.blocks
        end = len(blocks)
        regs = [0] * program.n_regs
        memory = [0] * program.local_words
        stream = iter(tokens)
        outputs = []
        visits = defaultdict(int)  # block entries, in first-entry order
        max_steps = self.max_steps
        steps = 0
        pc = 0
        try:
            while pc < end:
                block = blocks[pc]
                steps += block.size
                if steps > max_steps:
                    raise FleetSimulationError(
                        f"program {program.name!r} exceeded "
                        f"{max_steps} steps"
                    )
                visits[pc] += 1
                pc = block.run(regs, memory, stream, outputs)
        except IndexError as exc:
            raise code.fault(exc) from None
        return ScalarResult(outputs, code.op_counts(visits, simt=False),
                            steps)
