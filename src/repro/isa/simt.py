"""SIMT (lockstep warp) execution of ISA programs — the GPU baseline.

A warp of 32 lanes runs the same program over 32 different streams. Each
step, the scheduler issues the instruction at the minimum program counter
among active lanes; only lanes at that PC execute (the active mask). This
is the standard stackless-reconvergence model, and it charges exactly the
cost the paper attributes to GPUs on multi-stream workloads: when lanes
diverge (different stream contents take different branches), the warp
issues the union of all lanes' paths serially. The executor issues a
whole basic block (:mod:`repro.isa.decode`) at the minimum PC, which
issues the same instructions to the same lanes as issuing them one by
one.

The key output is the **divergence factor**:

    warp_issues / mean(per-lane instructions)

1.0 means perfectly converged (identical streams); the paper measures the
effect at 2.33x for JSON parsing and 1.25x for integer coding by feeding
identical data to every stream, an experiment reproduced in
``benchmarks/bench_sec72_divergence.py``.
"""

from collections import defaultdict

from ..lang.errors import FleetSimulationError

WARP_SIZE = 32


class SimtResult:
    def __init__(self, outputs, warp_issues, lane_steps, op_counts):
        self.outputs = outputs  # list per lane
        self.warp_issues = warp_issues
        self.lane_steps = lane_steps
        self.op_counts = op_counts  # warp-level opcode histogram

    @property
    def divergence_factor(self):
        active = [s for s in self.lane_steps if s]
        if not active:
            return 1.0
        return self.warp_issues / (sum(active) / len(active))

    def __repr__(self):
        return (
            f"SimtResult(warp_issues={self.warp_issues}, "
            f"divergence={self.divergence_factor:.2f}x)"
        )


class SimtExecutor:
    """Executes up to 32 streams in lockstep."""

    def __init__(self, program, *, max_issues=500_000_000):
        self.program = program
        self.max_issues = max_issues

    def run(self, streams):
        if not 1 <= len(streams) <= WARP_SIZE:
            raise FleetSimulationError(
                f"a warp runs 1..{WARP_SIZE} streams, got {len(streams)}"
            )
        program = self.program
        code = program.code
        blocks = code.blocks
        end = len(blocks)
        regs = [[0] * program.n_regs for _ in streams]
        memories = [[0] * program.local_words for _ in streams]
        inputs = [iter(tokens) for tokens in streams]
        outputs = [[] for _ in streams]
        lane_steps = [0] * len(streams)
        # Lanes by PC; a lane leaves at halt or past the last instruction.
        waiting = {0: list(range(len(streams)))} if end else {}
        visits = defaultdict(int)  # block issues, in first-issue order
        max_issues = self.max_issues
        warp_issues = 0
        try:
            while waiting:
                pc = min(waiting)
                block = blocks[pc]
                size = block.size
                warp_issues += size
                if warp_issues > max_issues:
                    raise FleetSimulationError(
                        f"warp exceeded {max_issues} issues"
                    )
                visits[pc] += 1
                run = block.run
                for lane in waiting.pop(pc):
                    lane_steps[lane] += size
                    target = run(regs[lane], memories[lane], inputs[lane],
                                 outputs[lane])
                    if target < end:
                        if target in waiting:
                            waiting[target].append(lane)
                        else:
                            waiting[target] = [lane]
        except IndexError as exc:
            raise code.fault(exc) from None
        return SimtResult(outputs, warp_issues, lane_steps,
                          code.op_counts(visits, simt=True))
