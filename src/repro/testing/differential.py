"""Differential execution of one program spec across all Fleet models.

Each spec is built into a :class:`~repro.lang.ast.UnitProgram` and every
input stream is executed on up to three independent implementations of
the unit semantics:

* the AST **interpreter** (`engine="interp"`) — the oracle;
* the **compile-to-Python** fast engine, forced on even when the static
  prover would not elide checks (the whole point is to compare it);
* the cycle-accurate **RTL simulator**, driven through its ready-valid
  interface by :class:`~repro.compiler.testbench.UnitTestbench`, under a
  deterministic rotation of input/output stall patterns.

All models must agree token for token on every stream. In addition the
emitted Verilog is checked structurally (see
:mod:`repro.testing.verilog_check`) and the interpreter's and compiled
engine's final architectural register state must match.

Fault injection for self-tests: ``source_transform`` rewrites the
compiled engine's generated Python source before it is executed, letting
the test suite plant a known bug and verify the pipeline catches and
shrinks it.
"""

from ..compiler.testbench import UnitTestbench
from ..interp.compile import (
    _NW,
    CompiledSimulator,
    CompiledUnit,
    compile_program,
)
from ..interp.simulator import UnitSimulator
from ..lang.errors import FleetError, FleetLoopLimitError, FleetSimulationError
from . import spec as spec_mod
from . import verilog_check

#: Per-token virtual-cycle bound during fuzzing; generated loops are
#: bounded by construction, so this only guards against model bugs.
MAX_VCYCLES = 10_000

#: Deterministic stall patterns, rotated by stream index so every
#: program sees both smooth and stalled handshakes.
STALL_PATTERNS = (
    {},
    {"input_stall": lambda c: c % 7 in (2, 5)},
    {"output_stall": lambda c: c % 5 == 1},
    {"input_stall": lambda c: c % 3 == 1,
     "output_stall": lambda c: c % 4 == 2},
)


class Mismatch(Exception):
    """A model disagreement (or model crash) on a well-formed program."""

    def __init__(self, stage, detail):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


def compile_transformed(program, source_transform=None):
    """Compile ``program`` to the fast engine, optionally rewriting the
    generated Python source first (test-only fault injection)."""
    unit = compile_program(program)
    if source_transform is None:
        return unit
    source = source_transform(unit.source)
    namespace = {
        "_NW": _NW,
        "_SimError": FleetSimulationError,
        "_LoopError": FleetLoopLimitError,
    }
    exec(compile(source, "<fleet-injected>", "exec"), namespace)
    return CompiledUnit(
        program, namespace["run_token"], namespace["run_stream"], source
    )


def run_interp(program, stream):
    sim = UnitSimulator(program, engine="interp",
                        max_vcycles_per_token=MAX_VCYCLES)
    outputs = list(sim.run(stream))
    state = {r.name: sim.peek_reg(r.name) for r in program.regs}
    return outputs, state, sim.trace


def run_compiled(program, stream, unit):
    sim = CompiledSimulator(program, unit=unit,
                            max_vcycles_per_token=MAX_VCYCLES)
    outputs = list(sim.run(stream))
    state = {r.name: sim.peek_reg(r.name) for r in program.regs}
    return outputs, state, sim.trace


def check_cost_soundness(program, stage, trace, index):
    """Cost-soundness axis: every measured ``(vcycles, emits)`` record
    of ``trace`` must land inside the program's certified per-token cost
    interval (:class:`~repro.lint.cost.CostFacts`). A violation is a
    miscompile or an analysis-soundness bug — either way a
    :class:`Mismatch`. No-op when the program has no cost facts (lint
    itself rejected it). Unbounded phases skip their upper check inside
    ``check_token``, so `NonterminationRisk` programs still validate
    their lower bounds.

    The batch and certified stages assert their traces equal the
    compiled engine's record-for-record, so checking the interpreter and
    compiled traces here transitively covers every engine that ran.
    """
    from ..lint.certificate import certificate_for

    cost = certificate_for(program).cost
    if cost is None:
        return
    n = len(trace.vcycles_per_token)
    for i in range(n):
        cleanup = trace._cleanup_recorded and i == n - 1
        violations = cost.check_token(
            trace.vcycles_per_token[i], trace.emits_per_token[i],
            cleanup=cleanup,
        )
        if violations:
            raise Mismatch(
                "cost",
                f"stream {index}: {stage} run escapes the certified "
                "cost interval: " + "; ".join(violations),
            )


#: Default engine axis: the oracle plus the fast engine. Add ``"batch"``
#: (``--engines interp,compiled,batch``) to also run every program's
#: streams as one ragged SIMD batch (on the native C tier for certified
#: programs when a toolchain is available), and ``"compiled-certified"``
#: to compare a fresh certified-specialized lowering (each skips
#: programs outside its gate).
DEFAULT_ENGINES = ("interp", "compiled")


def check_program(spec, streams, *, rtl=True, verilog=True,
                  source_transform=None, engines=DEFAULT_ENGINES):
    """Run every stream through every enabled model.

    ``engines`` selects the software-engine axis: the interpreter oracle
    always runs; ``"compiled"`` enables the per-stream fast-engine
    comparison and ``"batch"`` additionally executes all of the
    program's streams as *one ragged batch* on the SIMD engine (plus an
    empty-stream lane and a batch-of-1 run), comparing outputs,
    per-token virtual-cycle traces, and final register and BRAM state
    against the compiled engine. ``"compiled-certified"`` builds a
    *fresh* certified-specialized lowering (certificate facts consumed
    at codegen time), compared stream-for-stream — outputs,
    virtual-cycle and emit traces, final register and BRAM state —
    against the guarded compiled engine. Programs outside an axis's
    gate (uncertified, batch-unsupported) skip that stage, so every
    axis is safe on any corpus.

    Returns the per-stream interpreter outputs on full agreement; raises
    :class:`Mismatch` on any disagreement or model crash. Raises the
    underlying :class:`~repro.lang.errors.FleetError` unchanged when the
    *oracle* rejects the program — for generated specs that indicates a
    generator bug, for shrinker candidates an invalid reduction.
    """
    program = spec_mod.build_unit(spec)

    compiled = None
    try:
        compiled = compile_transformed(program, source_transform)
    except FleetError as exc:
        raise Mismatch("compile", f"fast engine rejected the program: {exc}")

    testbench = None
    if rtl:
        try:
            testbench = UnitTestbench(program)
        except FleetError as exc:
            raise Mismatch("rtl-compile",
                           f"RTL compiler rejected the program: {exc}")

    if verilog:
        try:
            verilog_check.check_program(program)
        except verilog_check.VerilogCheckError as exc:
            raise Mismatch("verilog", str(exc))

    expected = []
    for index, stream in enumerate(streams):
        want, want_state, want_trace = run_interp(program, stream)
        expected.append(want)
        check_cost_soundness(program, "interp", want_trace, index)

        try:
            got, got_state, got_trace = run_compiled(
                program, stream, compiled
            )
        except FleetError as exc:
            raise Mismatch(
                "compiled",
                f"stream {index}: fast engine crashed: "
                f"{type(exc).__name__}: {exc}",
            )
        if got != want:
            raise Mismatch(
                "compiled",
                f"stream {index}: outputs differ: interp={want} "
                f"compiled={got}",
            )
        if got_state != want_state:
            raise Mismatch(
                "compiled",
                f"stream {index}: final register state differs: "
                f"interp={want_state} compiled={got_state}",
            )
        check_cost_soundness(program, "compiled", got_trace, index)

        if testbench is not None:
            stalls = STALL_PATTERNS[index % len(STALL_PATTERNS)]
            try:
                got_rtl, _cycles = testbench.run(stream, **stalls)
            except FleetError as exc:
                raise Mismatch(
                    "rtl",
                    f"stream {index}: RTL simulation failed: "
                    f"{type(exc).__name__}: {exc}",
                )
            if got_rtl != want:
                raise Mismatch(
                    "rtl",
                    f"stream {index}: outputs differ: interp={want} "
                    f"rtl={got_rtl} (stalls={sorted(stalls)})",
                )

    if "batch" in engines:
        check_batch(program, streams)
    if "compiled-certified" in engines:
        check_specialized(program, streams)
    return expected


def check_batch(program, streams):
    """Differential stage for the SIMD batch engine.

    Runs all ``streams`` plus one always-empty lane as a single ragged
    batch and — when a non-empty stream exists — a batch of exactly one
    lane, comparing outputs, per-token virtual-cycle and emit traces,
    and final register and BRAM state against per-stream
    :class:`~repro.interp.compile.CompiledSimulator` runs (the
    batch-of-1 == compiled property from the batch engine's contract).
    The batch runs on whichever tier :func:`compile_batch` selects: the
    native kernel for certified programs, NumPy otherwise. No-op when
    the program is outside the batch engine's support set.
    """
    from ..interp.batch import batch_support, compile_batch, \
        run_batch_streams

    ok, _reason = batch_support(program)
    if not ok:
        return
    try:
        unit = compile_batch(program)
    except FleetError as exc:
        raise Mismatch(
            "batch-compile",
            f"batch engine rejected the program: {exc}",
        )

    lanes = [list(stream) for stream in streams] + [[]]
    refs = []
    for stream in lanes:
        sim = CompiledSimulator(program, max_vcycles_per_token=MAX_VCYCLES)
        outs = list(sim.run(stream))
        refs.append((outs, sim.trace, _full_state(sim, program)))

    batches = [("batch", lanes)]
    if any(lanes[:-1]):
        batches.append(("batch-of-1", [lanes[0]]))
    for stage, batch_lanes in batches:
        try:
            result = run_batch_streams(
                program, batch_lanes,
                max_vcycles_per_token=MAX_VCYCLES, unit=unit,
            )
        except FleetError as exc:
            raise Mismatch(
                stage,
                f"batch engine crashed: {type(exc).__name__}: {exc}",
            )
        for lane in range(len(batch_lanes)):
            outs, trace, state = refs[lane]
            if result.outputs[lane] != outs:
                raise Mismatch(
                    stage,
                    f"lane {lane}: outputs differ: compiled={outs} "
                    f"batch={result.outputs[lane]}",
                )
            got_trace = result.traces[lane]
            if got_trace.vcycles_per_token != trace.vcycles_per_token:
                raise Mismatch(
                    stage,
                    f"lane {lane}: virtual-cycle traces differ: "
                    f"compiled={trace.vcycles_per_token} "
                    f"batch={got_trace.vcycles_per_token}",
                )
            if got_trace.emits_per_token != trace.emits_per_token:
                raise Mismatch(
                    stage,
                    f"lane {lane}: emit traces differ: "
                    f"compiled={trace.emits_per_token} "
                    f"batch={got_trace.emits_per_token}",
                )
            got_state = result.reg_state(lane)
            for bram in program.brams:
                got_state[bram.name] = result.peek_bram(lane, bram.name)
            if got_state != state:
                raise Mismatch(
                    stage,
                    f"lane {lane}: final state differs: "
                    f"compiled={state} batch={got_state}",
                )


def _full_state(sim, program):
    """Final architectural state of a finished simulator: registers,
    plus every BRAM's full contents (vector registers have no peek hook;
    BRAM divergence is where address-guard elisions would show)."""
    state = {r.name: sim.peek_reg(r.name) for r in program.regs}
    for bram in program.brams:
        state[bram.name] = sim.peek_bram(bram.name)
    return state


def check_specialized(program, streams):
    """Differential stage for the certified-specialized lowering.

    Builds a **fresh** specialized unit (no program-object cache), so
    the comparison exercises the full certificate → facts → codegen
    pipeline every time, and compares stream-for-stream against the
    guarded compiled engine: outputs, per-token virtual-cycle and emit
    traces, and final register + BRAM state. No-op for uncertified
    programs — they have no specialized engine by design.
    """
    from ..lint.certificate import certificate_for

    certificate = certificate_for(program)
    if not certificate.ok or certificate.facts is None:
        return
    try:
        unit = compile_program(program, certificate=certificate)
    except FleetError as exc:
        raise Mismatch(
            "specialize-compile",
            f"certified specialization rejected the program: {exc}",
        )
    stage = "compiled-certified"
    for index, stream in enumerate(streams):
        ref = CompiledSimulator(program, max_vcycles_per_token=MAX_VCYCLES)
        want = list(ref.run(stream))
        want_state = _full_state(ref, program)
        sim = CompiledSimulator(program, unit=unit,
                                max_vcycles_per_token=MAX_VCYCLES)
        try:
            got = list(sim.run(stream))
        except FleetError as exc:
            raise Mismatch(
                stage,
                f"stream {index}: {stage} engine crashed: "
                f"{type(exc).__name__}: {exc}",
            )
        if got != want:
            raise Mismatch(
                stage,
                f"stream {index}: outputs differ: compiled={want} "
                f"{stage}={got}",
            )
        if sim.trace.vcycles_per_token != ref.trace.vcycles_per_token:
            raise Mismatch(
                stage,
                f"stream {index}: virtual-cycle traces differ: "
                f"compiled={ref.trace.vcycles_per_token} "
                f"{stage}={sim.trace.vcycles_per_token}",
            )
        if sim.trace.emits_per_token != ref.trace.emits_per_token:
            raise Mismatch(
                stage,
                f"stream {index}: emit traces differ: "
                f"compiled={ref.trace.emits_per_token} "
                f"{stage}={sim.trace.emits_per_token}",
            )
        got_state = _full_state(sim, program)
        if got_state != want_state:
            raise Mismatch(
                stage,
                f"stream {index}: final state differs: "
                f"compiled={want_state} {stage}={got_state}",
            )
