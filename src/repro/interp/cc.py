"""Native (C) tier of the batch engine: the certified cycle printed as
one lane-major C kernel.

:mod:`repro.interp.lower` lowers a certified program once — dead arms
gone, masks elided, registers written in place under the snapshot-read
scheme, temporaries sunk to their branch regions. The compiled engine
(:mod:`repro.interp.compile`) prints that lowering as Python; this
module prints the same lowering as C and compiles it through cffi (the
shared :mod:`repro.interp.native` machinery, with its content-addressed
on-disk build cache).

The kernel is the batch engine (:func:`repro.interp.batch.compile_batch`
holds it as ``BatchUnit.cc``). One ``fleet_run`` entry point runs every
lane of a ragged batch to completion, one lane after another: lanes
never interact, so a lane-major loop nest reproduces lockstep
execution exactly. Each lane runs the token-phase cycle (``sf`` folded
to 0) once per input token and then the cleanup-phase cycle (``sf``
folded to 1, the input token folded to 0), so every ``stream_finished``
flush branch is absent from the token loop.

Layouts (:class:`StateLayout`): tokens are lane-major ``(N, L)``;
registers are one ``(R, N)`` array; vector registers and BRAMs share
lane-major ``(B, N, E)`` groups by element count. Emitted values append
to one flat buffer and per-lane counts are returned.

Error protocol (``err[0]``): ``1`` loop limit in lane ``err[1]`` at
token ``err[2]``; ``2`` output capacity exhausted (the driver reruns
the batch from fresh state with a larger buffer — the kernel is pure
over its inputs). Tokens are validated by the driver before the kernel
runs.

The kernel is **certified-only** by design: the lowering's soundness
rests on the certificate, and a certificate also proves the dynamic
restriction checks unnecessary — so the kernel performs none.
Uncertified programs run per stream on the interpreter.
"""

import re
import time

from ..lang.errors import FleetSimulationError
from ..lang.types import mask
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from . import native as _native
from .lower import certified_lowering
from .native import _cc_load, cc_available

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_NATIVE_BUILD_SECONDS = _tm_histogram(
    "fleet_batch_native_build_seconds",
    "Wall-clock seconds per native (cffi) batch-kernel build or load",
)


# ---------------------------------------------------------------------------
# C printer
# ---------------------------------------------------------------------------

_C_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _c(e):
    """One lowered expression as C (``uint64_t`` arithmetic)."""
    tag = e[0]
    if tag == "k":
        return f"{e[1]}ULL"
    if tag == "token":
        return "_tok"
    if tag == "var":
        return e[1]
    if tag == "index":
        return f"{e[1]}[{_c(e[2])}]"
    if tag == "bin":
        if e[1] in _C_COMPARISONS:
            return f"((uint64_t)({_c(e[2])} {e[1]} {_c(e[3])}))"
        return f"({_c(e[2])} {e[1]} {_c(e[3])})"
    if tag == "shift":
        if e[4]:
            return f"({_c(e[2])} {e[1]} {_c(e[3])})"
        helper = "_shl64" if e[1] == "<<" else "_shr64"
        return f"{helper}({_c(e[2])}, {_c(e[3])})"
    if tag == "mask":
        return f"({_c(e[1])} & {hex(mask(e[2]))}ULL)"
    if tag == "not":
        return f"(~{_c(e[1])})"
    if tag == "lnot":
        return f"((uint64_t)({_c(e[1])} == 0))"
    if tag == "orr":
        return f"((uint64_t)({_c(e[1])} != 0))"
    if tag == "andr":
        return f"((uint64_t)({_c(e[1])} == {hex(mask(e[2]))}ULL))"
    if tag == "xorr":
        return f"((uint64_t)(__builtin_popcountll({_c(e[1])}) & 1))"
    if tag == "mux":
        return f"({_c(e[1])} ? ({_c(e[2])}) : ({_c(e[3])}))"
    if tag == "shr_k":
        return f"({_c(e[1])} >> {e[2]})"
    # "cat": widths fit 64 bits (batch_support), so every constant
    # part-shift is < 64 and plain C << is defined.
    out = _c(e[1])
    for width, part in e[2]:
        out = f"(({out} << {width}) | {_c(part)})"
    return out


def _c_leaf(leaf):
    tag = leaf[0]
    if tag == "set_reg":
        return f"_r{leaf[1]} = {_c(leaf[2])};"
    if tag == "set_vreg":
        i = leaf[1]
        code = f"_pvi{i} = {_c(leaf[2])}; _pvv{i} = {_c(leaf[3])};"
        return code if leaf[4] else code + f" _pvs{i} = 1;"
    if tag == "push_vreg":
        # Each syntactic site runs at most once per virtual cycle, so
        # the fixed-size queue can never overflow.
        i = leaf[1]
        return (f"_pqi{i}[_pqn{i}] = {_c(leaf[2])}; "
                f"_pqv{i}[_pqn{i}] = {_c(leaf[3])}; _pqn{i}++;")
    if tag == "write_bram":
        i = leaf[1]
        code = f"_pbi{i} = {_c(leaf[2])}; _pbv{i} = {_c(leaf[3])};"
        return code if leaf[4] else code + f" _pbs{i} = 1;"
    # Emits append straight to the output buffer, growing via err=2
    # retries.
    return ("if (_outn >= out_cap) { err[0] = 2; return -1; } "
            f"out_vals[_outn++] = {_c(leaf[1])}; _emits++;")


def _c_arm(lines, pad, n, cond):
    if cond is None:
        lines.append(pad + ("} else {" if n else "if (1) {"))
    else:
        lines.append(f"{pad}{'} else if' if n else 'if'} ({_c(cond)}) {{")


def _c_stmts(lines, items, indent):
    pad = "    " * indent
    for item in items:
        tag = item[0]
        if tag == "if":
            for n, (cond, (temps, nested)) in enumerate(item[1]):
                _c_arm(lines, pad, n, cond)
                _c_temps(lines, temps, indent + 1)
                _c_stmts(lines, nested, indent + 1)
            lines.append(f"{pad}}}")
        elif tag == "while":
            temps, nested = item[2]
            lines.append(f"{pad}if ({_c(item[1])}) {{")
            _c_temps(lines, temps, indent + 1)
            _c_stmts(lines, nested, indent + 1)
            lines.append(f"{pad}}}")
        elif tag == "wd":
            lines.append(f"{pad}if (_wd) {{")
            _c_stmts(lines, item[1], indent + 1)
            lines.append(f"{pad}}}")
        else:
            lines.append(pad + _c_leaf(item))


def _c_temps(lines, temps, indent):
    for name, expr in temps:
        lines.append(f"{'    ' * indent}uint64_t {name} = {_c(expr)};")


def _c_pass1(lines, items, indent):
    pad = "    " * indent
    for item in items:
        if item[0] == "while":
            lines.append(f"{pad}if (_wd && {_c(item[1])}) _wd = 0;")
            continue
        lines.append(f"{pad}if (_wd) {{")
        for n, (cond, nested) in enumerate(item[1]):
            _c_arm(lines, pad + "    ", n, cond)
            _c_pass1(lines, nested, indent + 2)
        lines.append(f"{pad}    }}")
        lines.append(f"{pad}}}")


def _c_cycle(cycle):
    """One virtual cycle, as C lines at relative indent 0."""
    lines = [f"uint64_t _o{i} = _r{i};" for i in cycle.snapshots]
    _c_temps(lines, cycle.temps, 0)
    if not cycle.straightline:
        lines.append("int _wd = 1;")
        _c_pass1(lines, cycle.pass1, 0)
    for i, sites, uncond in cycle.vregs:
        if sites > 1:
            lines.append(f"uint64_t _pqi{i}[{sites}], _pqv{i}[{sites}]; "
                         f"int _pqn{i} = 0;")
        elif uncond:
            lines.append(f"uint64_t _pvi{i} = 0, _pvv{i} = 0;")
        else:
            lines.append(f"uint64_t _pvi{i} = 0, _pvv{i} = 0; "
                         f"int _pvs{i} = 0;")
    for i, uncond in cycle.brams:
        if uncond:
            lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0;")
        else:
            lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0; "
                         f"int _pbs{i} = 0;")
    _c_stmts(lines, cycle.body, 0)
    # Commit: pending vreg/BRAM writes land together at end of cycle
    # (registers landed in place; emits appended directly).
    for i, sites, uncond in cycle.vregs:
        if uncond:
            lines.append(f"_v{i}[_pvi{i}] = _pvv{i};")
        elif sites == 1:
            lines.append(f"if (_pvs{i}) _v{i}[_pvi{i}] = _pvv{i};")
        else:
            lines.append(f"for (int _q = 0; _q < _pqn{i}; _q++) "
                         f"_v{i}[_pqi{i}[_q]] = _pqv{i}[_q];")
    for i, uncond in cycle.brams:
        if uncond:
            lines.append(f"_b{i}[_pbi{i}] = _pbv{i};")
        else:
            lines.append(f"if (_pbs{i}) _b{i}[_pbi{i}] = _pbv{i};")
    return lines


def _c_cycle_at(out, cycle, pad, err_ti):
    """One virtual-cycle execution (loop or collapsed straight-line)
    writing ``_lvc`` with the cycle count."""
    lines = _c_cycle(cycle)
    if cycle.straightline:
        for line in lines:
            out(pad + line)
        out(f"{pad}_lvc = 1;")
        return
    out(f"{pad}_lvc = 0;")
    out(f"{pad}for (;;) {{")
    out(f"{pad}    _lvc++;")
    for line in lines:
        out(f"{pad}    " + line)
    out(f"{pad}    if (_wd) break;")
    out(f"{pad}    if (_lvc >= max_vc) {{")
    out(f"{pad}        err[0] = 1; err[1] = _lane; err[2] = {err_ti};")
    out(f"{pad}        return -1;")
    out(f"{pad}    }}")
    out(f"{pad}}}")


class StateLayout:
    """Where one program's state lives in the kernel's arguments.

    Registers are the rows of one ``(R, N)`` array, in declaration
    order. Vector registers, then BRAMs, with the same element count
    share one lane-major ``(B, N, E)`` group, groups numbered in order of
    first appearance: ``groups`` holds ``(elements, [(kind, index),
    ...])`` per group and ``loc`` maps ``(kind, index)`` to ``(group,
    member)``.
    """

    __slots__ = ("groups", "loc")

    def __init__(self, program):
        self.groups = []
        self.loc = {}
        by_elements = {}
        decls = [("vreg", i, v) for i, v in enumerate(program.vregs)]
        decls += [("bram", i, b) for i, b in enumerate(program.brams)]
        for kind, i, decl in decls:
            gid = by_elements.setdefault(decl.elements, len(self.groups))
            if gid == len(self.groups):
                self.groups.append((decl.elements, []))
            members = self.groups[gid][1]
            self.loc[(kind, i)] = (gid, len(members))
            members.append((kind, i))


def print_c(lowered, layout):
    """The lane-major ``fleet_run`` kernel for ``lowered`` over the
    :class:`StateLayout` ``layout``."""
    lines = []
    out = lines.append
    out("#include <stdint.h>")
    out("")
    out("static inline uint64_t _shl64(uint64_t a, uint64_t b)")
    out("{ return b > 63 ? 0 : a << b; }")
    out("static inline uint64_t _shr64(uint64_t a, uint64_t b)")
    out("{ return b > 63 ? 0 : a >> b; }")
    out("")
    out("int fleet_run(uint64_t *toks, int64_t *lens,")
    out("              int64_t L, int64_t N,")
    out(f"              uint64_t *regs{_sg_params(layout)},")
    out("              int64_t max_vc,")
    out("              uint64_t *out_vals, int64_t out_cap,")
    out("              int64_t *out_cnt,")
    out("              int32_t *vca, int32_t *ema, int64_t *err)")
    out("{")
    out("    int64_t _outn = 0;")
    out("    for (int64_t _lane = 0; _lane < N; _lane++) {")
    pad = " " * 8
    for i in range(lowered.n_regs):
        out(f"{pad}uint64_t _r{i} = regs[{i} * N + _lane];")
    for kind, prefix, count in (("vreg", "_v", lowered.n_vregs),
                                ("bram", "_b", lowered.n_brams)):
        for i in range(count):
            gid, member = layout.loc[(kind, i)]
            elements = layout.groups[gid][0]
            out(f"{pad}uint64_t *{prefix}{i} = sg{gid} + "
                f"({member} * N + _lane) * {elements};")
    out(f"{pad}const uint64_t *_tk = toks + _lane * L;")
    out(f"{pad}int64_t _len = lens[_lane];")
    out(f"{pad}int32_t *_vcr = vca + _lane * (L + 1);")
    out(f"{pad}int32_t *_emr = ema + _lane * (L + 1);")
    out(f"{pad}int64_t _start = _outn;")
    out(f"{pad}int32_t _lvc, _emits;")
    out(f"{pad}for (int64_t _ti = 0; _ti < _len; _ti++) {{")
    out(f"{pad}    uint64_t _tok = _tk[_ti];")
    out(f"{pad}    _emits = 0;")
    _c_cycle_at(out, lowered.token, pad + "    ", "_ti")
    out(f"{pad}    _vcr[_ti] = _lvc;")
    out(f"{pad}    _emr[_ti] = _emits;")
    out(f"{pad}}}")
    out(f"{pad}{{")
    out(f"{pad}    _emits = 0;")
    _c_cycle_at(out, lowered.cleanup, pad + "    ", "_len")
    out(f"{pad}}}")
    out(f"{pad}_vcr[_len] = _lvc;")
    out(f"{pad}_emr[_len] = _emits;")
    out(f"{pad}out_cnt[_lane] = _outn - _start;")
    for i in range(lowered.n_regs):
        out(f"{pad}regs[{i} * N + _lane] = _r{i};")
    out("    }")
    out("    err[0] = 0;")
    out("    return 0;")
    out("}")
    return "\n".join(lines) + "\n"


def _sg_params(layout):
    return "".join(
        f", uint64_t *sg{g}" for g in range(len(layout.groups))
    )


class _CcKernel:
    """Handle to one program's compiled native kernel: ``lib``/``ffi``
    expose ``fleet_run``; ``source`` is the generated C (debugging and
    golden-snapshot hook); ``elisions`` counts what the lowering
    deleted (the same counts as the program's certified Python unit)."""

    __slots__ = ("lib", "ffi", "source", "elisions")

    def __init__(self, lib, ffi, source, elisions):
        self.lib = lib
        self.ffi = ffi
        self.source = source
        self.elisions = elisions


def compile_cc(program, layout, certificate=None):
    """Build the native kernel for ``program`` over its
    :class:`StateLayout` ``layout``.

    Certified-only: with ``certificate=None`` the (memoized)
    certificate is fetched via
    :func:`repro.lint.certificate.certificate_for`; a rejected, stale,
    or fact-less certificate is **refused** with a hard error, exactly
    like :func:`repro.interp.compile.compile_program`. The kernel prints
    the same :mod:`repro.interp.lower` lowering the certified Python unit
    prints (memoized on the program). Raises
    :class:`FleetSimulationError` when no C toolchain is available or
    the build fails.
    """
    from ..lint.certificate import certificate_for

    if certificate is None:
        certificate = certificate_for(program)
    lowered = certified_lowering(program, certificate,
                                 "native specialization")
    if not cc_available():
        raise FleetSimulationError(
            "no working C toolchain for the native tier "
            f"(FLEET_NATIVE={'off' if not _native.native_enabled() else 'auto'},"
            f" last error: {_native.last_error()!r})"
        )
    started = time.perf_counter() if _tm_enabled() else None
    source = print_c(lowered, layout)
    cdef = (
        "int fleet_run(uint64_t *toks, int64_t *lens, "
        f"int64_t L, int64_t N, uint64_t *regs{_sg_params(layout)}, "
        "int64_t max_vc, uint64_t *out_vals, int64_t out_cap, "
        "int64_t *out_cnt, int32_t *vca, int32_t *ema, "
        "int64_t *err);"
    )
    tag = re.sub(r"\W+", "_", program.name)[:24] or "prog"
    try:
        lib, ffi = _cc_load(cdef, source, tag)
    except Exception as exc:
        _native.set_last_error(exc)
        raise FleetSimulationError(
            f"native kernel build failed for {program.name!r}: {exc}"
        ) from exc
    if started is not None:
        _NATIVE_BUILD_SECONDS.observe(time.perf_counter() - started)
    return _CcKernel(lib, ffi, source, lowered.elisions)


__all__ = [
    "StateLayout",
    "cc_available",
    "compile_cc",
    "print_c",
]
