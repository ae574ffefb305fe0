"""Differential execution of one program spec across all Fleet models.

Each spec is built into a :class:`~repro.lang.ast.UnitProgram` and every
input stream is executed on up to four independent implementations of
the unit semantics:

* the AST **interpreter** (`engine="interp"`) — the oracle;
* the certified **compile-to-Python** engine, printed fresh for every
  program that certifies (the ``compiled-certified`` axis);
* the **batch** kernel, all streams as one ragged batch, as int lists
  with per-token traces and final state kept and, for programs whose
  tokens fit a byte, as byte strings without them, the way serve runs
  its lanes (the ``batch`` axis);
* the cycle-accurate **RTL simulator**, driven through its ready-valid
  interface by :class:`~repro.compiler.testbench.UnitTestbench`, under a
  deterministic rotation of input/output stall patterns.

All models must agree token for token on every stream; the software
engines must also match the interpreter's per-token virtual-cycle and
emit traces and its final register and BRAM state, each output and
state value in type as well as in value. In addition the
emitted Verilog is checked structurally (see
:mod:`repro.testing.verilog_check`).

Fault injection for self-tests: ``source_transform`` rewrites the
compiled engine's generated Python source before it is executed, letting
the test suite plant a known bug and verify the pipeline catches and
shrinks it.
"""

from ..compiler.testbench import UnitTestbench
from ..interp.compile import (
    CompiledSimulator,
    compile_program,
    unit_from_source,
)
from ..interp.simulator import UnitSimulator
from ..lang.errors import FleetError
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

#: The software-engine axes ``check_program`` knows.
ENGINES = ("interp", "compiled-certified", "batch")

#: Default engine axis: the oracle plus the certified compiled engine.
#: Add ``"batch"`` to also run every program's streams as one ragged
#: batch on the program's C kernel (needs a C toolchain). Each axis
#: skips programs outside its gate.
DEFAULT_ENGINES = ("interp", "compiled-certified")


class Mismatch(Exception):
    """A model disagreement (or model crash) on a well-formed program."""

    def __init__(self, stage, detail):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


def compile_transformed(program, source_transform=None):
    """A fresh certified compiled unit for ``program`` (``None`` when it
    does not certify), optionally with its generated Python source
    rewritten first (test-only fault injection)."""
    from ..lint.certificate import certificate_for

    certificate = certificate_for(program)
    if not certificate.ok or certificate.facts is None:
        return None
    try:
        unit = compile_program(program)
    except FleetError as exc:
        raise Mismatch("compile", f"certified lowering rejected the "
                       f"program: {exc}")
    if source_transform is None:
        return unit
    return unit_from_source(program, unit.lowered,
                            source_transform(unit.source))


def _full_state(sim, program):
    """Final architectural state of a finished simulator: registers,
    plus every BRAM's full contents (vector registers have no peek hook;
    BRAM divergence is where address-guard elisions would show)."""
    state = {r.name: sim.peek_reg(r.name) for r in program.regs}
    for bram in program.brams:
        state[bram.name] = sim.peek_bram(bram.name)
    return state


def run_interp(program, stream):
    """The oracle's outputs, full final state, and trace for one stream."""
    sim = UnitSimulator(program, engine="interp",
                        max_vcycles_per_token=MAX_VCYCLES)
    outputs = list(sim.run(stream))
    return outputs, _full_state(sim, program), sim.trace


def check_cost_soundness(program, stage, trace, index):
    """Cost-soundness axis: every measured ``(vcycles, emits)`` record
    of ``trace`` must land inside the program's certified per-token cost
    interval (:class:`~repro.lint.cost.CostFacts`). A violation is a
    miscompile or an analysis-soundness bug — either way a
    :class:`Mismatch`. No-op when the program has no cost facts (lint
    itself rejected it). Unbounded phases skip their upper check inside
    ``check_token``, so `NonterminationRisk` programs still validate
    their lower bounds.

    The batch stage asserts its traces equal the interpreter's
    record-for-record, so checking the interpreter and compiled traces
    here transitively covers every engine that ran.
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


def check_program(spec, streams, *, rtl=True, verilog=True,
                  source_transform=None, engines=DEFAULT_ENGINES):
    """Run every stream through every enabled model.

    ``engines`` selects the software-engine axes (see :data:`ENGINES`):
    the interpreter oracle always runs; ``"compiled-certified"`` prints
    a *fresh* certified unit (certificate facts consumed at codegen
    time) and compares it stream-for-stream against the interpreter —
    outputs, per-token virtual-cycle and emit traces, final register and
    BRAM state; ``"batch"`` additionally executes all of the program's
    streams as *one ragged batch* on its C kernel (:func:`check_batch`).
    Programs outside an axis's gate (uncertified, batch-unsupported)
    skip that stage, so every axis is safe on any corpus.

    Returns the per-stream interpreter outputs on full agreement; raises
    :class:`Mismatch` on any disagreement or model crash. Raises the
    underlying :class:`~repro.lang.errors.FleetError` unchanged when the
    *oracle* rejects the program — for generated specs that indicates a
    generator bug, for shrinker candidates an invalid reduction.
    """
    program = spec_mod.build_unit(spec)

    compiled = None
    if "compiled-certified" in engines:
        compiled = compile_transformed(program, source_transform)

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

    refs = []
    for index, stream in enumerate(streams):
        ref = run_interp(program, stream)
        want = ref[0]
        refs.append(ref)
        check_cost_soundness(program, "interp", ref[2], index)
        if compiled is not None:
            _check_compiled(program, compiled, stream, index, ref)

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
        check_batch(program, streams, refs)
    return [ref[0] for ref in refs]


def _check_compiled(program, unit, stream, index, ref):
    """One stream on the certified compiled ``unit`` against the
    interpreter's ``(outputs, state, trace)``."""
    stage = "compiled-certified"
    sim = CompiledSimulator(program, unit,
                            max_vcycles_per_token=MAX_VCYCLES)
    try:
        got = list(sim.run(stream))
    except FleetError as exc:
        raise Mismatch(
            stage,
            f"stream {index}: {stage} engine crashed: "
            f"{type(exc).__name__}: {exc}",
        )
    _compare(stage, f"stream {index}", ref,
             (got, _full_state(sim, program), sim.trace))
    check_cost_soundness(program, stage, sim.trace, index)


def _type_difference(got, want, path):
    """The first place where ``got`` and ``want`` — equal in value —
    differ in type, as ``(path, got type, want type)``, or ``None``.
    ``True == 1``, so comparing values alone misses a ``bool`` leak."""
    if type(got) is not type(want):
        return path, type(got).__name__, type(want).__name__
    if isinstance(want, dict):
        pairs = [(f"{path}[{key!r}]", got[key], want[key]) for key in want]
    elif isinstance(want, list):
        pairs = [(f"{path}[{i}]", g, w)
                 for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None
    for sub, g, w in pairs:
        found = _type_difference(g, w, sub)
        if found is not None:
            return found
    return None


def _compare_types(stage, where, got, want, what):
    found = _type_difference(got, want, what)
    if found is not None:
        path, got_type, want_type = found
        raise Mismatch(
            stage, f"{where}: {path} differs in type: "
            f"interp={want_type} {stage}={got_type}",
        )


def _compare_outputs(stage, where, got, want):
    """Raise :class:`Mismatch` unless an engine's outputs equal the
    interpreter's, in type as well as in value."""
    if got != want:
        raise Mismatch(
            stage, f"{where}: outputs differ: interp={want} {stage}={got}",
        )
    _compare_types(stage, where, got, want, "outputs")


def _compare(stage, where, ref, run):
    """Raise :class:`Mismatch` unless an engine's ``run`` — ``(outputs,
    final state, trace)`` — equals the interpreter's ``ref``, outputs
    and final state in type as well as in value."""
    want, want_state, want_trace = ref
    got, got_state, got_trace = run
    _compare_outputs(stage, where, got, want)
    if got_trace.vcycles_per_token != want_trace.vcycles_per_token:
        raise Mismatch(
            stage,
            f"{where}: virtual-cycle traces differ: "
            f"interp={want_trace.vcycles_per_token} "
            f"{stage}={got_trace.vcycles_per_token}",
        )
    if got_trace.emits_per_token != want_trace.emits_per_token:
        raise Mismatch(
            stage,
            f"{where}: emit traces differ: "
            f"interp={want_trace.emits_per_token} "
            f"{stage}={got_trace.emits_per_token}",
        )
    if got_state != want_state:
        raise Mismatch(
            stage,
            f"{where}: final state differs (register state and BRAM "
            "contents): "
            f"interp={want_state} {stage}={got_state}",
        )
    _compare_types(stage, where, got_state, want_state, "final state")


def check_batch(program, streams, refs=None):
    """Differential stage for the batch kernel.

    Runs all ``streams`` plus one always-empty lane as a single ragged
    batch and — when a non-empty stream exists — a batch of exactly one
    lane, with ``traces=True``, comparing outputs, per-token
    virtual-cycle and emit traces, per-lane virtual-cycle totals, and
    final register and BRAM state against per-stream interpreter runs
    (``refs``, one :func:`run_interp` result per stream, when the caller
    already has them). When every token fits a byte (``input_width <=
    8``), both batches run again the way serve runs its lanes: as
    ``bytes`` lanes, without traces, comparing outputs and per-lane
    totals (stage ``batch-bytes``). No-op when the program has no
    kernel by design: uncertified, or outside :func:`batch_support`. A
    kernel that cannot be built here is a ``batch-compile`` mismatch
    (the CLI checks for a toolchain before it starts).
    """
    from ..interp.batch import batch_support, compile_batch, \
        run_batch_streams
    from ..lint.certificate import certificate_for

    certificate = certificate_for(program)
    if not (certificate.ok and certificate.facts is not None
            and batch_support(program)[0]):
        return
    try:
        unit = compile_batch(program)
    except FleetError as exc:
        raise Mismatch(
            "batch-compile",
            f"batch engine rejected the program: {exc}",
        )

    lanes = [list(stream) for stream in streams] + [[]]
    if refs is None:
        refs = [run_interp(program, stream) for stream in streams]
    refs = list(refs) + [run_interp(program, [])]

    batches = [("batch", lanes)]
    if any(lanes[:-1]):
        batches.append(("batch-of-1", [lanes[0]]))
    if program.input_width <= 8:
        batches += [("batch-bytes", [bytes(lane) for lane in batch_lanes])
                    for _, batch_lanes in batches]
    for stage, batch_lanes in batches:
        traces = stage != "batch-bytes"
        try:
            result = run_batch_streams(
                program, batch_lanes,
                max_vcycles_per_token=MAX_VCYCLES, unit=unit,
                traces=traces,
            )
        except FleetError as exc:
            raise Mismatch(
                stage,
                f"batch engine crashed: {type(exc).__name__}: {exc}",
            )
        for lane in range(len(batch_lanes)):
            want, _, want_trace = refs[lane]
            if traces:
                got_state = result.reg_state(lane)
                for bram in program.brams:
                    got_state[bram.name] = result.peek_bram(lane, bram.name)
                _compare(stage, f"lane {lane}", refs[lane],
                         (result.outputs[lane], got_state,
                          result.traces[lane]))
            else:
                _compare_outputs(stage, f"lane {lane}",
                                 result.outputs[lane], want)
            if result.vcycles[lane] != want_trace.total_vcycles:
                raise Mismatch(
                    stage,
                    f"lane {lane}: virtual-cycle totals differ: "
                    f"interp={want_trace.total_vcycles} "
                    f"{stage}={result.vcycles[lane]}",
                )
