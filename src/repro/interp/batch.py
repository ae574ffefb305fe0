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

Only what the caller reads crosses the kernel boundary. The lanes go in
as one packed token buffer, and every lane runs on one lane of reused
state, started from the unit's init images. Outputs and per-lane
virtual-cycle totals come back. Per-token traces and final lane state
are written only for ``run_batch_streams(..., traces=True)``: the
differential harness, the perf harness and the tests ask for them;
serve and its calibration do not.

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
    any batch size. ``reg_init`` holds the registers' initial values and
    ``group_init`` one lane's init image per state group, ``(members,
    elements)``: every lane starts from them."""

    __slots__ = ("program", "layout", "cc", "reg_init", "group_init",
                 "_init_ptrs")

    def __init__(self, program, layout, cc):
        self.program = program
        self.layout = layout
        self.cc = cc
        self.reg_init = _np.array(
            [reg.init for reg in program.regs], dtype=_np.uint64,
        )
        self.group_init = []
        for elements, members in layout.groups:
            image = _np.zeros((len(members), elements), _np.uint64)
            for m, (kind, di) in enumerate(members):
                if kind == "vreg":
                    image[m] = program.vregs[di].init
            self.group_init.append(image)
        # The kernel only reads the init images: one pointer each serves
        # every call, from any thread.
        ffi = cc.ffi
        self._init_ptrs = (
            ffi.from_buffer("uint64_t[]", self.reg_init)
            if self.reg_init.size else ffi.NULL,
            [ffi.from_buffer("uint64_t[]", image)
             for image in self.group_init],
        )


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
    from ..lint.certificate import artifacts_for, certificate_for
    from .compile import env_engine

    if env_engine() == "interp":
        return _decline("env_veto")
    if not certificate_for(program).ok:
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
    """Outputs, per-lane virtual-cycle totals and occupancy stats of one
    ragged-batch run, plus — for a run with ``traces=True`` — each
    lane's per-token traces and final state.

    ``vcycles[i]`` is lane ``i``'s total virtual cycles, cleanup
    included. The per-token :class:`~repro.interp.trace.StreamTrace`\\ s
    are built from the kernel's rows when ``traces`` is first read.
    Reading ``traces``, ``peek_reg``, ``peek_bram`` or ``reg_state`` of
    a run without ``traces=True`` raises :class:`FleetSimulationError`.
    """

    __slots__ = ("program", "outputs", "vcycles", "stats", "_layout",
                 "_lens", "_vca", "_ema", "_regs", "_groups", "_traces")

    def __init__(self, program, outputs, vcycles, layout, kept=None):
        self.program = program
        self.outputs = outputs
        self.vcycles = vcycles
        self.stats = BatchStats(vcycles)
        self._layout = layout
        # kept: (lens, vca, ema, regs, groups) of a traces=True run.
        self._lens, self._vca, self._ema, self._regs, self._groups = (
            kept or (None,) * 5
        )
        self._traces = None

    def _kept(self):
        if self._vca is None:
            raise FleetSimulationError(
                "per-token traces and final lane state are kept only by "
                "run_batch_streams(..., traces=True)"
            )

    @property
    def traces(self):
        """One :class:`~repro.interp.trace.StreamTrace` per lane: the
        virtual cycles and emits of each token, then of cleanup."""
        if self._traces is None:
            self._kept()
            vc_row = self._vca.tolist()
            em_row = self._ema.tolist()
            traces = []
            pos = 0
            for length in self._lens:
                trace = StreamTrace()
                trace.vcycles_per_token = vc_row[pos:pos + length + 1]
                trace.emits_per_token = em_row[pos:pos + length + 1]
                trace._cleanup_recorded = True
                traces.append(trace)
                pos += length + 1
            self._traces = traces
        return self._traces

    def peek_reg(self, lane, name):
        """Final architectural value of register ``name`` in ``lane``."""
        self._kept()
        for ri, reg in enumerate(self.program.regs):
            if reg.name == name:
                return int(self._regs[lane, ri])
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, lane, name):
        """Final contents of BRAM ``name`` in ``lane``, as a list."""
        self._kept()
        for di, bram in enumerate(self.program.brams):
            if bram.name == name:
                gid, member = self._layout.loc[("bram", di)]
                return self._groups[gid][lane, member].tolist()
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


def _pack(program, streams):
    """``streams`` as the kernel's one packed token buffer (``uint8``
    when every token fits a byte, else ``uint64``; see
    :class:`~repro.interp.cc.StateLayout`) and the lanes' lengths,
    validated lane by lane in lane order."""
    width = program.input_width
    if width == 8 and set(map(type, streams)) == {bytes}:
        # Serve's lanes: byte strings are valid 8-bit tokens as they are.
        return b"".join(streams), list(map(len, streams))
    lanes = [_validate_stream(program, s) for s in streams]
    dtype = _np.uint8 if width <= 8 else _np.uint64
    return (_np.concatenate(lanes, dtype=dtype),
            [lane.shape[0] for lane in lanes])


def run_batch_streams(program, streams, *, max_vcycles_per_token=1_000_000,
                      unit=None, traces=False):
    """Execute ``streams`` (one per lane, ragged lengths allowed; one
    stream is a batch of one) in one kernel call; returns a
    :class:`BatchResult` whose outputs and per-lane virtual-cycle
    totals are bit-identical to N independent compiled-engine runs. A
    lane is a byte string (each byte one token) or any sequence of int
    tokens; the lanes enter the kernel as one packed buffer.
    ``unit`` defaults to a fresh :func:`compile_batch`.

    With ``traces=True`` the kernel also writes each lane's per-token
    virtual-cycle and emit counts and its final registers and state, for
    :attr:`BatchResult.traces`, :meth:`~BatchResult.peek_reg`,
    :meth:`~BatchResult.peek_bram` and :meth:`~BatchResult.reg_state`;
    without it, those raise. Outputs and totals are the same either way.

    Note on invalid tokens: the batch engine validates all streams
    upfront, lane by lane, so a bad token raises before *any* lane
    executes (the sequential engines raise mid-stream after earlier
    tokens ran), with the error they raise. A loop-limit error carries
    the lane and the lane's token index as ``lane`` and ``token``.
    """
    if unit is None:
        unit = compile_batch(program)
    streams = list(streams)
    n = len(streams)
    if n == 0:
        raise FleetSimulationError("run_batch_streams needs >= 1 stream")
    toks, lens = _pack(program, streams)
    total = len(toks)
    ffi, lib = unit.cc.ffi, unit.cc.lib
    reg_init, group_inits = unit._init_ptrs
    # One int64 table: lens in, then per-lane emit counts and vcycle
    # totals out, then the error words.
    table = ffi.new("int64_t[]", 3 * n + 3)
    table[0:n] = lens
    layout = unit.layout
    if traces:
        kept_regs = _np.empty((n, unit.reg_init.shape[0]), _np.uint64)
        states = [_np.empty((n,) + image.shape, _np.uint64)
                  for image in unit.group_init]
        vca = _np.empty(total + n, dtype=_np.int32)
        ema = _np.empty(total + n, dtype=_np.int32)
        trace_args = (ffi.from_buffer("int32_t[]", vca),
                      ffi.from_buffer("int32_t[]", ema),
                      ffi.from_buffer("uint64_t[]", kept_regs)
                      if kept_regs.size else ffi.NULL)
    else:
        states = [_np.empty(image.size, _np.uint64)
                  for image in unit.group_init]
        trace_args = (ffi.NULL, ffi.NULL, ffi.NULL)
    state_args = []
    for init, state in zip(group_inits, states):
        state_args += (init, ffi.from_buffer("uint64_t[]", state))
    tok_ptr = ffi.from_buffer(f"{layout.token_type}[]", toks)
    # One output word per token, plus slack: every served app emits at
    # most one output per token. A unit that emits more retries below.
    cap = max(total + 16 * n + 1024, 4096)
    while True:
        out_vals = _np.empty(cap, dtype=_np.uint64)
        rc = lib.fleet_run(
            tok_ptr, table, n, reg_init, *state_args,
            max_vcycles_per_token,
            ffi.from_buffer("uint64_t[]", out_vals), cap,
            table + n, table + 2 * n, *trace_args, table + 3 * n,
        )
        if rc == 0:
            break
        code, lane, token = ffi.unpack(table + 3 * n, 3)
        if code != 2:
            error = FleetLoopLimitError(
                "while loop did not terminate within "
                + str(max_vcycles_per_token) + " virtual cycles"
            )
            error.lane, error.token = lane, token
            raise error
        # Output buffer filled. Every lane starts from its init images,
        # so rerun with a larger buffer.
        cap *= 4

    counts = ffi.unpack(table + n, 2 * n)
    vcycles = counts[n:]
    flat = out_vals[: sum(counts[:n])].tolist()
    outputs = []
    pos = 0
    for count in counts[:n]:
        outputs.append(flat[pos:pos + count])
        pos += count
    kept = (lens, vca, ema, kept_regs, states) if traces else None
    return BatchResult(program, outputs, vcycles, layout, kept)


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
