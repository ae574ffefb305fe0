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
  runs only where a clean certificate proves none can fire;
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
    any batch size. ``reg_init`` is the registers' initial values as one
    ``(R, 1)`` column, broadcast across a batch's lanes."""

    __slots__ = ("program", "layout", "cc", "reg_init")

    def __init__(self, program, layout, cc):
        self.program = program
        self.layout = layout
        self.cc = cc
        self.reg_init = _np.array(
            [reg.init for reg in program.regs], dtype=_np.uint64,
        ).reshape(-1, 1)

    def init_state(self, n):
        """Fresh state for an N-lane batch, in the kernel's layout:
        registers as one ``(R, N)`` array, each state group lane-major
        ``(B, N, E)``."""
        program = self.program
        regs = _np.empty((self.reg_init.shape[0], n), _np.uint64)
        regs[:] = self.reg_init
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
    (:func:`repro.lint.certificate.artifacts_for`). Once it is, the
    gate's AST walk is not repeated: a built unit passed it.
    """
    from ..lint.certificate import artifacts_for
    from .compile import _checks_elidable, env_engine

    if env_engine() == "interp":
        return _decline("env_veto")
    if not _checks_elidable(program):
        return _decline("uncertified")
    record = artifacts_for(program)
    if record.batch is None and not batch_support(program)[0]:
        return _decline("unsupported")
    if kernel_unavailable() is not None:
        return _decline("no_toolchain")
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


class BatchResult:
    """Outputs, per-lane virtual-cycle totals, traces, and occupancy
    stats of one ragged-batch run.

    ``vcycles[i]`` is lane ``i``'s total virtual cycles, cleanup
    included. The per-token :class:`~repro.interp.trace.StreamTrace`\\ s
    are built from the kernel's arrays when ``traces`` is first read.
    """

    __slots__ = ("program", "outputs", "vcycles", "stats", "_unit",
                 "_regs", "_groups", "_lens", "_vca", "_ema", "_traces")

    def __init__(self, program, outputs, vcycles, stats, unit, regs,
                 groups, lens, vca, ema):
        self.program = program
        self.outputs = outputs
        self.vcycles = vcycles
        self.stats = stats
        self._unit = unit
        self._regs = regs
        self._groups = groups
        self._lens = lens
        self._vca = vca
        self._ema = ema
        self._traces = None

    @property
    def traces(self):
        """One :class:`~repro.interp.trace.StreamTrace` per lane: the
        virtual cycles and emits of each token, then of cleanup."""
        if self._traces is None:
            vc_rows = self._vca.tolist()
            em_rows = self._ema.tolist()
            traces = []
            for i, length in enumerate(self._lens.tolist()):
                trace = StreamTrace()
                trace.vcycles_per_token = vc_rows[i][: length + 1]
                trace.emits_per_token = em_rows[i][: length + 1]
                trace._cleanup_recorded = True
                traces.append(trace)
            self._traces = traces
        return self._traces

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
    """One stream as a token array, under the token rule every engine
    applies (:func:`repro.interp.stream.as_token`): a byte stream as its
    ``uint8`` view, any other as ``uint64``."""
    width = program.input_width
    in_mask = mask(width)
    if isinstance(stream, (bytes, bytearray, memoryview)):
        data = bytes(stream)
        arr = _np.frombuffer(data, dtype=_np.uint8)
        if width < 8 and arr.size and int(arr.max()) > in_mask:
            as_token(next(t for t in data if t > in_mask), width)
        return arr
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
    """Execute ``streams`` (one per lane, ragged lengths allowed; one
    stream is a batch of one) in one kernel call; returns a
    :class:`BatchResult` whose outputs, per-lane virtual-cycle totals
    and :class:`~repro.interp.trace.StreamTrace`\\ s are bit-identical to
    N independent compiled-engine runs. A lane is a byte string (each
    byte one token; copied into the kernel's token matrix from its
    ``uint8`` view) or any sequence of int tokens.
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
    vcycles = vca.sum(axis=1, dtype=_np.int64).tolist()
    return BatchResult(program, outputs, vcycles, BatchStats(vcycles),
                       unit, regs, groups, lens, vca, ema)


__all__ = [
    "BatchResult",
    "BatchStats",
    "BatchUnit",
    "NUMPY_HINT",
    "batch_engine_for",
    "batch_support",
    "cc_available",
    "compile_batch",
    "kernel_unavailable",
    "run_batch_streams",
]
