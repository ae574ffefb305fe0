"""Batch engine: N replicas of one processing unit in a single call.

A Fleet deployment is the same processing unit replicated over many
independent streams. This module runs such a ragged batch — one stream
per lane, lengths free, empty streams allowed — through one call of the
program's lane-major C kernel (:mod:`repro.interp.cc`): the certified
cycle lowering (:mod:`repro.interp.lower`) printed as C, the same
lowering the certified compiled engine prints as Python. Lanes never
interact, so running them one after another inside the kernel
reproduces lockstep execution exactly: every lane's outputs, per-token
virtual-cycle and emit counts, and final state equal an independent
compiled-engine run of its stream.

A :class:`BatchUnit` is that kernel plus its state layout
(:class:`~repro.interp.cc.StateLayout`). :func:`compile_batch` builds
one, or raises :class:`FleetSimulationError` when the program

* is not certified — the kernel performs no restriction checks, so it
  runs only where a clean covering certificate proves none can fire;
* fails the machine-word gate (:func:`batch_support`): an expression
  wider than 64 bits, or a BRAM or vector register whose element count
  is not a power of two;
* cannot be built here (:func:`kernel_unavailable`): NumPy missing,
  ``FLEET_NATIVE=off``, or no working C toolchain.

:func:`batch_engine_for` returns ``None`` in each of those cases (and
under ``FLEET_ENGINE=interp``), counting the decline by reason;
callers then run each stream on certified compiled Python or the
interpreter. NumPy holds the kernel's arrays; without it the package
still imports and every batch declines.
"""

from array import array

try:  # pragma: no cover - exercised both ways across environments
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from ..lang import ast
from ..lang.errors import FleetLoopLimitError, FleetSimulationError
from ..lang.types import MACHINE_WIDTH, machine_bits, mask
from ..telemetry.metrics import counter as _tm_counter
from . import cc as _cc
from . import native as _native
from .lower import state_shape_ok
from .native import cc_available
from .stream import as_token
from .trace import StreamTrace

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_BATCH_FALLBACKS = _tm_counter(
    "fleet_batch_fallback_total",
    "batch_engine_for() declined and callers fell back to per-stream "
    "engines",
    ("reason",),
)
_BATCH_COMPILES = _tm_counter(
    "fleet_batch_compiles_total",
    "Unit programs built into batch units",
)

#: Shown when a batch is requested but NumPy is not importable.
NUMPY_HINT = (
    "the batch engine requires numpy (`pip install numpy`); "
    "install it or use the compiled engine"
)


def kernel_unavailable():
    """Why no batch kernel can be built and run here — NumPy missing,
    ``FLEET_NATIVE=off``, or no working C toolchain (cffi plus a C
    compiler) — or ``None`` when one can."""
    if _np is None:
        return NUMPY_HINT
    if not _native.native_enabled():
        return "native kernels are disabled (FLEET_NATIVE=off)"
    if not cc_available():
        return (
            "no working C toolchain (cffi and a C compiler; last error: "
            f"{_native.last_error()!r})"
        )
    return None


def batch_support(program):
    """Whether ``program`` fits the batch kernel's machine-word gate.

    Returns ``(True, "")`` or ``(False, reason)``: every BRAM and vector
    register needs a power-of-two element count (the lowering's totality
    gate), and every port, expression and constant must fit a 64-bit
    word. Certification and the host are checked separately.
    """
    if not state_shape_ok(program):
        return False, (
            "every BRAM and vector register needs a power-of-two "
            "element count"
        )
    if machine_bits(program.input_width) is None:
        return False, f"input width {program.input_width} exceeds 64 bits"
    if machine_bits(program.output_width) is None:
        return False, f"output width {program.output_width} exceeds 64 bits"
    seen = set()
    for stmt in ast.walk_statements(program.body):
        for root in ast.statement_exprs(stmt):
            for node in ast.walk_expr(root):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if isinstance(node, ast.Const):
                    if node.value > mask(MACHINE_WIDTH):
                        return False, (
                            f"constant {node.value} exceeds a 64-bit "
                            "machine word"
                        )
                elif machine_bits(node.width) is None:
                    return False, (
                        f"expression width {node.width} exceeds 64-bit "
                        "lanes"
                    )
    return True, ""


class BatchUnit:
    """A certified program's lane-major C kernel (``cc``) and the
    :class:`~repro.interp.cc.StateLayout` it runs over; one unit serves
    any batch size."""

    __slots__ = ("program", "layout", "cc")

    def __init__(self, program, layout, cc):
        self.program = program
        self.layout = layout
        self.cc = cc

    def init_state(self, n):
        """Fresh state for an N-lane batch, in the kernel's layout:
        registers as one ``(R, N)`` array, each state group lane-major
        ``(B, N, E)``."""
        program = self.program
        regs = _np.empty((len(program.regs), n), _np.uint64)
        for row, reg in enumerate(program.regs):
            regs[row] = reg.init
        groups = []
        for elements, members in self.layout.groups:
            arr = _np.zeros((len(members), n, elements), _np.uint64)
            for m, (kind, di) in enumerate(members):
                if kind == "vreg" and program.vregs[di].init:
                    arr[m] = program.vregs[di].init
            groups.append(arr)
        return regs, groups


def compile_batch(program):
    """Build ``program``'s :class:`BatchUnit`: its state layout and the
    certified kernel over it (:func:`repro.interp.cc.compile_cc`, looked
    up at call time).

    Raises :class:`FleetSimulationError` when the program fails
    :func:`batch_support`, when no kernel can be built here
    (:func:`kernel_unavailable`), or — from ``compile_cc`` — when the
    program is not certified or the build fails.
    """
    ok, reason = batch_support(program)
    if ok:
        reason = kernel_unavailable()
    if reason:
        raise FleetSimulationError(
            f"program {program.name!r} is not batch-compilable: {reason}"
        )
    layout = _cc.StateLayout(program)
    unit = BatchUnit(program, layout, _cc.compile_cc(program, layout))
    _BATCH_COMPILES.inc()
    return unit


def _decline(reason):
    _BATCH_FALLBACKS.inc(reason=reason)
    return None


def batch_engine_for(program):
    """The :class:`BatchUnit` to run ``program``'s batches on, or
    ``None`` when callers must run each stream on its own.

    Declines, each counted once by ``reason`` in
    ``fleet_batch_fallback_total``: ``env_veto``
    (``FLEET_ENGINE=interp``), ``uncertified`` (checked before anything
    is built), ``unsupported`` (:func:`batch_support`), ``no_toolchain``
    (:func:`kernel_unavailable`, ``FLEET_NATIVE=off`` included), and
    ``build_failed``. A unit is built once per program structure
    (:func:`repro.lint.certificate.artifacts_for`).
    """
    from ..lint.certificate import artifacts_for
    from .compile import _checks_elidable, env_engine

    if env_engine() == "interp":
        return _decline("env_veto")
    if not _checks_elidable(program):
        return _decline("uncertified")
    if not batch_support(program)[0]:
        return _decline("unsupported")
    if kernel_unavailable() is not None:
        return _decline("no_toolchain")
    record = artifacts_for(program)
    if record.batch is None:
        try:
            record.batch = compile_batch(program)
        except FleetSimulationError:
            return _decline("build_failed")
    return record.batch


class BatchStats:
    """Per-batch occupancy accounting (the :mod:`repro.obs` counters).

    Lanes run contiguously from global cycle 1 until their stream (plus
    cleanup) completes, so per-cycle lane occupancy is derivable from the
    per-lane totals: at global cycle ``t`` exactly the lanes with
    ``total_vcycles >= t`` are active, and the ragged-tail waste is
    everything the longest lane forces the batch to wait for.
    """

    def __init__(self, lane_vcycles):
        self.lane_vcycles = list(lane_vcycles)
        self.lanes = len(self.lane_vcycles)
        self.cycles = max(self.lane_vcycles, default=0)
        self.busy_lane_cycles = sum(self.lane_vcycles)

    @property
    def slot_cycles(self):
        return self.lanes * self.cycles

    @property
    def waste_fraction(self):
        """Fraction of lane-cycle slots idle while the batch drains its
        ragged tail (0.0 for a uniform batch)."""
        if not self.slot_cycles:
            return 0.0
        return 1.0 - self.busy_lane_cycles / self.slot_cycles

    @property
    def mean_active_lanes(self):
        """Mean replicas active per virtual cycle."""
        if not self.cycles:
            return 0.0
        return self.busy_lane_cycles / self.cycles

    def active_lanes_at(self, cycle):
        """Replicas active during 1-based global virtual cycle ``cycle``."""
        return sum(1 for v in self.lane_vcycles if v >= cycle)

    def as_dict(self):
        return {
            "lanes": self.lanes,
            "cycles": self.cycles,
            "busy_lane_cycles": self.busy_lane_cycles,
            "mean_active_lanes": round(self.mean_active_lanes, 3),
            "waste_fraction": round(self.waste_fraction, 6),
        }

    def __repr__(self):
        return (
            f"BatchStats(lanes={self.lanes}, cycles={self.cycles}, "
            f"waste={self.waste_fraction:.3f})"
        )


class PredictedBatchStats:
    """Static occupancy prediction for one ragged batch.

    Built *before* the batch runs, from the certified per-token vcycle
    interval the cost analysis seals into the program's restriction
    certificate (:mod:`repro.lint.cost`): lane ``i`` with ``n_i`` tokens
    provably finishes within ``cost.stream_vcycles(n_i)``, so the
    spread of those intervals bounds the lockstep ragged-tail waste.

    The waste bound is sound, not an estimate: whichever lane attains
    the batch makespan ``M`` is busy all ``M`` cycles and every other
    lane is busy at least its certified lower bound, so

    ``waste <= 1 - 1/L - (sum(lo) - max(lo)) / (L * M_hi)``

    with the right side maximized at the certified makespan upper bound
    ``M_hi = max(hi_i)`` (the expression is increasing in ``M``).
    ``waste_bound`` is ``None`` when any lane's cost is unbounded.
    """

    def __init__(self, cost, lane_tokens):
        self.lane_tokens = list(lane_tokens)
        self.lanes = len(self.lane_tokens)
        #: per-lane certified (lo, hi) total-vcycle intervals
        self.lane_bounds = [
            cost.stream_vcycles(n) for n in self.lane_tokens
        ]
        los = [lo for lo, _hi in self.lane_bounds]
        his = [hi for _lo, hi in self.lane_bounds]
        self.cycles_lo = max(los, default=0)
        self.cycles_hi = (None if any(hi is None for hi in his)
                          else max(his, default=0))

    @property
    def waste_bound(self):
        """Certified upper bound on :attr:`BatchStats.waste_fraction`,
        or ``None`` when some lane has no finite cost bound."""
        if not self.lanes or self.cycles_hi is None:
            return None
        if not self.cycles_hi:
            return 0.0
        los = [lo for lo, _hi in self.lane_bounds]
        slack = sum(los) - max(los)
        return max(0.0, 1.0 - 1.0 / self.lanes
                   - slack / (self.lanes * self.cycles_hi))

    def check(self, stats):
        """Violation strings if the measured :class:`BatchStats` lands
        outside the certified prediction (empty = sound)."""
        violations = []
        for i, (measured, (lo, hi)) in enumerate(
                zip(stats.lane_vcycles, self.lane_bounds)):
            if measured < lo or (hi is not None and measured > hi):
                violations.append(
                    f"lane {i}: {measured} vcycles outside certified "
                    f"[{lo}, {hi}]"
                )
        bound = self.waste_bound
        if bound is not None and stats.waste_fraction > bound + 1e-12:
            violations.append(
                f"waste {stats.waste_fraction:.6f} exceeds certified "
                f"bound {bound:.6f}"
            )
        return violations

    def compare(self, stats):
        """Predicted-vs-actual occupancy report for one measured run."""
        return {
            "lanes": self.lanes,
            "predicted_cycles": [self.cycles_lo, self.cycles_hi],
            "actual_cycles": stats.cycles,
            "predicted_waste_bound": self.waste_bound,
            "actual_waste": round(stats.waste_fraction, 6),
            "sound": not self.check(stats),
        }

    def as_dict(self):
        return {
            "lanes": self.lanes,
            "lane_bounds": [list(pair) for pair in self.lane_bounds],
            "cycles": [self.cycles_lo, self.cycles_hi],
            "waste_bound": self.waste_bound,
        }

    def __repr__(self):
        bound = self.waste_bound
        waste = "unbounded" if bound is None else f"{bound:.3f}"
        return (
            f"PredictedBatchStats(lanes={self.lanes}, "
            f"cycles=[{self.cycles_lo}, {self.cycles_hi}], "
            f"waste<={waste})"
        )


def predict_batch_stats(program, lane_tokens):
    """Static :class:`PredictedBatchStats` for ``program`` lanes with
    ``lane_tokens`` tokens each, or ``None`` when the program's
    certificate carries no cost facts."""
    from ..lint.certificate import certificate_for

    cost = certificate_for(program).cost
    if cost is None:
        return None
    return PredictedBatchStats(cost, lane_tokens)


class BatchResult:
    """Outputs, traces, and occupancy stats of one ragged-batch run."""

    __slots__ = ("program", "outputs", "traces", "stats", "cycles",
                 "_unit", "_regs", "_groups", "_predicted")

    def __init__(self, program, outputs, traces, stats, cycles, unit,
                 regs, groups):
        self.program = program
        self.outputs = outputs
        self.traces = traces
        self.stats = stats
        self.cycles = cycles
        self._unit = unit
        self._regs = regs
        self._groups = groups
        self._predicted = False  # lazily computed (None is a result)

    @property
    def predicted_stats(self):
        """Static :class:`PredictedBatchStats` for this batch's lane
        token counts (``None`` when the program has no cost facts).
        Lazy — the lint cost pass runs only when occupancy prediction
        is asked for, never on the batch execution path."""
        if self._predicted is False:
            self._predicted = predict_batch_stats(
                self.program,
                [len(t.emits_per_token) - 1 for t in self.traces],
            )
        return self._predicted

    def occupancy_report(self):
        """Predicted-vs-actual occupancy: the certified pre-run bounds
        next to the measured :class:`BatchStats`, or ``None`` when no
        prediction exists."""
        predicted = self.predicted_stats
        if predicted is None:
            return None
        return predicted.compare(self.stats)

    def peek_reg(self, lane, name):
        """Final architectural value of register ``name`` in ``lane``."""
        for ri, reg in enumerate(self.program.regs):
            if reg.name == name:
                return int(self._regs[ri, lane])
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, lane, name):
        """Final contents of BRAM ``name`` in ``lane``, as a list."""
        for di, bram in enumerate(self.program.brams):
            if bram.name == name:
                gid, member = self._unit.layout.loc[("bram", di)]
                return self._groups[gid][member, lane].tolist()
        raise FleetSimulationError(f"no BRAM named {name!r}")

    def reg_state(self, lane):
        """``{name: value}`` of every register in ``lane`` (the
        differential harness's final-state comparison)."""
        return {
            reg.name: self.peek_reg(lane, reg.name)
            for reg in self.program.regs
        }


def _validate_stream(program, stream):
    """One stream as a ``uint64`` token array, under the token rule every
    engine applies (:func:`repro.interp.stream.as_token`)."""
    width = program.input_width
    in_mask = mask(width)
    if isinstance(stream, (bytes, bytearray, memoryview)):
        data = bytes(stream)
        arr = _np.frombuffer(data, dtype=_np.uint8)
        if width < 8 and arr.size and int(arr.max()) > in_mask:
            as_token(next(t for t in data if t > in_mask), width)
        return arr.astype(_np.uint64)
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    try:
        # array("Q") admits exactly what operator.index does, in
        # [0, 2**64): no float, no negative, no oversize token.
        arr = _np.array(array("Q", stream), dtype=_np.uint64)
    except (TypeError, OverflowError):
        arr = None
    if arr is None or (arr.size and int(arr.max()) > in_mask):
        for token in stream:
            as_token(token, width)  # raises at the first bad token
    return arr


def run_batch_streams(program, streams, *, max_vcycles_per_token=1_000_000,
                      unit=None):
    """Execute ``streams`` (one per lane, ragged lengths allowed) in one
    kernel call; returns a :class:`BatchResult` whose outputs and
    per-lane :class:`~repro.interp.trace.StreamTrace` virtual-cycle
    counts are bit-identical to N independent compiled-engine runs.
    ``unit`` defaults to a fresh :func:`compile_batch`.

    Note on invalid tokens: the batch engine validates all streams
    upfront, so a bad token raises before *any* lane executes (the
    sequential engines raise mid-stream after earlier tokens ran).
    """
    if unit is None:
        unit = compile_batch(program)
    streams = list(streams)
    n = len(streams)
    if n == 0:
        raise FleetSimulationError("run_batch_streams needs >= 1 stream")
    arrs = [_validate_stream(program, s) for s in streams]
    lens = _np.array([a.shape[0] for a in arrs], dtype=_np.int64)
    width = max(int(lens.max()), 1)
    toks = _np.zeros((n, width), dtype=_np.uint64)
    for i, a in enumerate(arrs):
        if a.shape[0]:
            toks[i, : a.shape[0]] = a
    vca = _np.zeros((n, width + 1), dtype=_np.int32)
    ema = _np.zeros((n, width + 1), dtype=_np.int32)
    out_cnt = _np.zeros(n, dtype=_np.int64)
    err = _np.zeros(4, dtype=_np.int64)
    ffi, lib = unit.cc.ffi, unit.cc.lib
    cap = max(4 * int(lens.sum()) + 16 * n + 1024, 4096)
    while True:
        regs, groups = unit.init_state(n)
        out_vals = _np.empty(cap, dtype=_np.uint64)
        rc = lib.fleet_run(
            ffi.from_buffer("uint64_t[]", toks),
            ffi.from_buffer("int64_t[]", lens),
            width, n,
            ffi.from_buffer("uint64_t[]", regs) if regs.size else ffi.NULL,
            *[ffi.from_buffer("uint64_t[]", g) for g in groups],
            max_vcycles_per_token,
            ffi.from_buffer("uint64_t[]", out_vals), cap,
            ffi.from_buffer("int64_t[]", out_cnt),
            ffi.from_buffer("int32_t[]", vca),
            ffi.from_buffer("int32_t[]", ema),
            ffi.from_buffer("int64_t[]", err),
        )
        if rc == 0:
            break
        if int(err[0]) != 2:
            raise FleetLoopLimitError(
                "while loop did not terminate within "
                + str(max_vcycles_per_token) + " virtual cycles"
            )
        # Output buffer filled. The kernel is pure over its inputs, so
        # rerun from fresh state with a larger buffer.
        cap *= 4

    flat = out_vals[: int(out_cnt.sum())].tolist()
    outputs = []
    pos = 0
    for count in out_cnt.tolist():
        outputs.append(flat[pos:pos + count])
        pos += count
    vc_rows = vca.tolist()
    em_rows = ema.tolist()
    traces = []
    for i, length in enumerate(lens.tolist()):
        trace = StreamTrace()
        trace.vcycles_per_token = vc_rows[i][: length + 1]
        trace.emits_per_token = em_rows[i][: length + 1]
        trace._cleanup_recorded = True
        traces.append(trace)
    stats = BatchStats([t.total_vcycles for t in traces])
    return BatchResult(program, outputs, traces, stats, stats.cycles,
                       unit, regs, groups)


class BatchStreamSimulator:
    """Drop-in stream simulator backed by the batch kernel at N=1.

    ``run`` executes the whole stream in one kernel call. The
    incremental API (``process_token``/``finish_stream``) delegates to
    the program's cached certified compiled unit — the kernel runs whole
    streams by construction — so ``make_simulator(engine="batch")``
    never breaks token-at-a-time drivers.
    """

    def __init__(self, program, *, check_restrictions=True,
                 max_vcycles_per_token=1_000_000, unit=None):
        self.program = program
        self.check_restrictions = check_restrictions
        self.max_vcycles_per_token = max_vcycles_per_token
        self._unit = unit if unit is not None else compile_batch(program)
        self.reset()

    def reset(self):
        self._outputs = []
        self._finished = False
        self._result = None
        self._fallback = None
        self.trace = StreamTrace()

    def _delegate(self):
        if self._fallback is None:
            from .compile import CompiledSimulator, try_specialize

            self._fallback = CompiledSimulator(
                self.program, unit=try_specialize(self.program),
                check_restrictions=self.check_restrictions,
                max_vcycles_per_token=self.max_vcycles_per_token,
            )
        return self._fallback

    def run(self, tokens):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        if self._fallback is not None:
            outputs = self._fallback.run(tokens)
            self.trace = self._fallback.trace
            self._outputs = list(self._fallback.outputs)
            self._finished = True
            return outputs
        result = run_batch_streams(
            self.program, [list(tokens)], unit=self._unit,
            max_vcycles_per_token=self.max_vcycles_per_token,
        )
        self._result = result
        self._outputs = list(result.outputs[0])
        self.trace = result.traces[0]
        self._finished = True
        return list(self._outputs)

    def process_token(self, token):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        sim = self._delegate()
        out = sim.process_token(token)
        self.trace = sim.trace
        self._outputs = list(sim.outputs)
        return out

    def finish_stream(self):
        if self._finished:
            raise FleetSimulationError("stream already finished")
        sim = self._delegate()
        out = sim.finish_stream()
        self.trace = sim.trace
        self._outputs = list(sim.outputs)
        self._finished = True
        return out

    @property
    def outputs(self):
        return list(self._outputs)

    def peek_reg(self, name):
        if self._result is not None:
            return self._result.peek_reg(0, name)
        if self._fallback is not None:
            return self._fallback.peek_reg(name)
        for reg in self.program.regs:
            if reg.name == name:
                return reg.init
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        if self._result is not None:
            return self._result.peek_bram(0, name)
        if self._fallback is not None:
            return self._fallback.peek_bram(name)
        for bram in self.program.brams:
            if bram.name == name:
                return [0] * bram.elements
        raise FleetSimulationError(f"no BRAM named {name!r}")


__all__ = [
    "BatchResult",
    "BatchStats",
    "BatchStreamSimulator",
    "BatchUnit",
    "NUMPY_HINT",
    "PredictedBatchStats",
    "batch_engine_for",
    "batch_support",
    "cc_available",
    "compile_batch",
    "kernel_unavailable",
    "predict_batch_stats",
    "run_batch_streams",
]
