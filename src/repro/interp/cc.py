"""Native (C) tier of the batch engine: the certified-specialized cycle
compiled to one lane-major C kernel.

The compiled engine (:mod:`repro.interp.compile`) lowers a program to
specialized Python; with a clean certificate its codegen additionally
deletes every guard the interval domain proves redundant. This module
takes the same certified IR one tier further: the *specialized* cycle —
dead arms gone, masks elided, registers written in place under the
snapshot-read scheme, temporaries sunk to their branch regions — is
rendered as C instead of Python and compiled through cffi (the shared
:mod:`repro.interp.native` machinery, with its content-addressed
on-disk build cache).

The kernel is the batch engine's native tier
(:func:`repro.interp.batch.compile_batch` attaches it as
``BatchUnit.cc``). One ``fleet_run`` entry point runs every lane of a
ragged batch to completion, one lane after another: lanes never
interact, so a lane-major loop nest reproduces the SIMD semantics
exactly. Each lane runs the token-phase cycle (``sf`` folded to 0) once
per input token and then the cleanup-phase cycle (``sf`` folded to 1,
the input token folded to 0), so every ``stream_finished`` flush branch
is absent from the token loop.

Layouts: tokens are lane-major ``(N, L)``; registers keep the batch
unit's ``(R, N)`` layout; each ``(B, E, N)`` state group is passed
transposed to lane-major ``(B, N, E)``. Emitted values append to one
flat buffer and per-lane counts are returned.

Error protocol (``err[0]``): ``1`` loop limit in lane ``err[1]`` at
token ``err[2]``; ``2`` output capacity exhausted (the driver reruns
the batch from fresh state with a larger buffer — the kernel is pure
over its inputs). Tokens are validated by the driver before the kernel
runs.

The tier is **certified-only** by design: it inherits the specialized
renderer, whose soundness rests on the certificate, and a certificate
also proves the dynamic restriction checks unnecessary — so the kernel
performs none. Uncertified programs run on the NumPy tier.
"""

import re
import time

from ..lang import ast
from ..lang.errors import FleetSimulationError
from ..lang.types import mask
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from . import native as _native
from .compile import _LEAF_NODES, _Codegen, _Unsupported
from .native import _cc_load, cc_available

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_NATIVE_BUILD_SECONDS = _tm_histogram(
    "fleet_batch_native_build_seconds",
    "Wall-clock seconds per native (cffi) batch-kernel build or load",
)

_CMP_OPS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))


# ---------------------------------------------------------------------------
# Code generation (C surface over the specialized IR)
# ---------------------------------------------------------------------------


class _UnitCCodegen(_Codegen):
    """Renders the certified-specialized cycle of one program as a
    lane-major C kernel.

    Subclasses the compiled engine's codegen *with facts*, so the entire
    specialization pipeline — dead-arm elimination, phase splitting,
    mask/guard elision, constant folding, snapshot-read registers,
    region-sunk temporaries, direct emits — is inherited; only the
    surface syntax changes. The virtual-cycle semantics (reads see
    start-of-cycle state, pending vreg/BRAM writes commit last-wins at
    end of cycle, leaves outside whiles fire only on the ``while_done``
    cycle) are therefore identical to the specialized Python engine by
    construction. ``unit`` is the :class:`~repro.interp.batch.BatchUnit`
    whose state layout the kernel's arguments follow.
    """

    def __init__(self, program, facts, unit):
        if facts is None:
            raise _Unsupported("the native tier is certified-only")
        super().__init__(program, facts=facts)
        self.unit = unit

    # -- expression rendering (C) -------------------------------------------
    def _shift(self, node, cop, helper):
        """Render a shift: plain C ``<<``/``>>`` when the amount is
        provably below 64 (a constant, a narrow operand, or an interval
        fact), else through the saturating helper — C shifts by >= 64
        are undefined where Python's are total."""
        lhs, rhs = self._render(node.lhs), self._render(node.rhs)
        amount = node.rhs
        safe = False
        if isinstance(amount, ast.Const):
            safe = amount.value <= 63
        elif mask(amount.width) <= 63:
            safe = True
        else:
            bound = self.facts.interval(self._key(amount))
            safe = bound is not None and bound[1] <= 63
        if safe:
            return f"({lhs} {cop} {rhs})"
        return f"{helper}({lhs}, {rhs})"

    def _render_body(self, node):
        if isinstance(node, ast.Const):
            return f"{node.value}ULL"
        if not isinstance(node, _LEAF_NODES):
            folded = self.facts.constant(self._key(node))
            if folded is not None:
                self._elide("const_folds")
                return f"{folded}ULL"
        if isinstance(node, ast.InputToken):
            return "0ULL" if self._phase == 1 else "_tok"
        if isinstance(node, ast.StreamFinished):
            # Renders are always phase-split (0 or 1).
            return f"{self._phase}ULL"
        if isinstance(node, ast.RegRead):
            return self._reg_read_name[node.reg]
        if isinstance(node, ast.WireRead):
            return self._render(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            index = self._trunc(node.index, node.vreg.index_width,
                                kind="addr_masks")
            return f"{self.vreg_name[node.vreg]}[{index}]"
        if isinstance(node, ast.BramRead):
            addr = self._trunc(node.addr, node.bram.addr_width,
                               kind="addr_masks")
            return f"{self.bram_name[node.bram]}[{addr}]"
        if isinstance(node, ast.BinOp):
            op = node.op
            if op == "shl":
                return self._shift(node, "<<", "_shl64")
            if op == "shr":
                return self._shift(node, ">>", "_shr64")
            lhs, rhs = self._render(node.lhs), self._render(node.rhs)
            if op in ("add", "mul", "and", "or", "xor"):
                c = {"add": "+", "mul": "*", "and": "&",
                     "or": "|", "xor": "^"}[op]
                return f"({lhs} {c} {rhs})"
            if op in _CMP_OPS:
                c = {"eq": "==", "ne": "!=", "lt": "<",
                     "le": "<=", "gt": ">", "ge": ">="}[op]
                return f"((uint64_t)({lhs} {c} {rhs}))"
            if op == "sub":
                if self.facts.sub_exact(self._key(node.lhs),
                                        self._key(node.rhs)):
                    self._elide("sub_masks")
                    return f"({lhs} - {rhs})"
                return f"(({lhs} - {rhs}) & {hex(mask(node.width))}ULL)"
            raise _Unsupported(node)
        if isinstance(node, ast.UnOp):
            a = self._render(node.operand)
            w = node.operand.width
            if node.op == "not":
                return f"((~{a}) & {hex(mask(w))}ULL)"
            if node.op == "lnot":
                return f"((uint64_t)({a} == 0))"
            if node.op == "orr":
                return f"((uint64_t)({a} != 0))"
            if node.op == "andr":
                return f"((uint64_t)({a} == {hex(mask(w))}ULL))"
            if node.op == "xorr":
                return f"((uint64_t)(__builtin_popcountll({a}) & 1))"
            raise _Unsupported(node)
        if isinstance(node, ast.Mux):
            cond = self._render(node.cond)
            then = self._render(node.then)
            els = self._render(node.els)
            return f"({cond} ? ({then}) : ({els}))"
        if isinstance(node, ast.Slice):
            a = self._render(node.operand)
            if node.lo == 0 and node.width == node.operand.width:
                return a
            shifted = a if node.lo == 0 else f"({a} >> {node.lo})"
            if self._fits(node.operand, node.hi + 1):
                self._elide("slice_masks")
                return shifted
            return f"({shifted} & {hex(mask(node.width))}ULL)"
        if isinstance(node, ast.Concat):
            # Concat width fits 64 bits (batch_support), so every
            # constant part-shift is < 64: plain C << is defined.
            out = self._render(node.parts[0])
            for part in node.parts[1:]:
                out = f"(({out} << {part.width}) | {self._render(part)})"
            return out
        raise _Unsupported(node)

    def _trunc(self, node, width, kind="value_masks"):
        rendered = self._render(node)
        if node.width > width:
            if self._fits(node, width):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))}ULL)"
        return rendered

    def _trunc_at(self, node, width, location, role, kind):
        rendered = self._render(node)
        if node.width > width:
            if self._site_fits(node, width, location, role):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))}ULL)"
        return rendered

    # -- statement rendering (C) --------------------------------------------
    def _emit_pass1(self, lines, body, indent):
        pad = "    " * indent
        wrote = False
        for stmt in body:
            if isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                cond = self._render(stmt.cond)
                lines.append(f"{pad}if (_wd && {cond}) _wd = 0;")
                wrote = True
            elif isinstance(stmt, ast.If) and \
                    self._contains_live_while(stmt):
                lines.append(f"{pad}if (_wd) {{")
                first = True
                for cond, arm_body, _j in self._live_arms(stmt):
                    if cond is not None:
                        kw = "if" if first else "} else if"
                        rendered = self._render(cond)
                        lines.append(f"{pad}    {kw} ({rendered}) {{")
                    else:
                        lines.append(
                            f"{pad}    "
                            + ("if (1) {" if first else "} else {")
                        )
                    first = False
                    self._emit_pass1(lines, arm_body, indent + 2)
                lines.append(f"{pad}    }}")
                lines.append(f"{pad}}}")
                wrote = True
        return wrote

    def _leaf_code(self, stmt, location):
        if isinstance(stmt, ast.RegAssign):
            index = self.program.regs.index(stmt.reg)
            value = self._trunc_at(stmt.value, stmt.reg.width,
                                   location, "value", "value_masks")
            # Snapshot-read scheme (inherited): reads render as the
            # `_o{i}` snapshot, so the write lands in place.
            self._elide("reg_sentinels")
            return f"_r{index} = {value};"
        if isinstance(stmt, ast.VectorRegAssign):
            index = self.program.vregs.index(stmt.vreg)
            idx = self._trunc_at(stmt.index, stmt.vreg.index_width,
                                 location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.vreg.width,
                                   location, "value", "value_masks")
            if self.vreg_sites[stmt.vreg] == 1:
                if stmt.vreg in self._uncond_vregs:
                    return f"_pvi{index} = {idx}; _pvv{index} = {value};"
                return (f"_pvi{index} = {idx}; _pvv{index} = {value}; "
                        f"_pvs{index} = 1;")
            # Each syntactic site runs at most once per virtual cycle,
            # so the fixed-size queue can never overflow.
            return (f"_pqi{index}[_pqn{index}] = {idx}; "
                    f"_pqv{index}[_pqn{index}] = {value}; _pqn{index}++;")
        if isinstance(stmt, ast.BramWrite):
            index = self.program.brams.index(stmt.bram)
            addr = self._trunc_at(stmt.addr, stmt.bram.addr_width,
                                  location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.bram.width,
                                   location, "value", "value_masks")
            if stmt.bram in self._uncond_brams:
                return f"_pbi{index} = {addr}; _pbv{index} = {value};"
            return (f"_pbi{index} = {addr}; _pbv{index} = {value}; "
                    f"_pbs{index} = 1;")
        if isinstance(stmt, ast.Emit):
            value = self._trunc_at(stmt.value, self.program.output_width,
                                   location, "value", "value_masks")
            # Certified emit exclusivity (inherited direct-emit): append
            # straight to the output buffer, growing via err=2 retries.
            self._elide("direct_emits")
            return ("if (_outn >= out_cap) { err[0] = 2; return -1; } "
                    f"out_vals[_outn++] = {value}; _emits++;")
        raise _Unsupported(stmt)

    def _emit_pass2(self, lines, body, indent, in_loop, path="body",
                    region=()):
        pad = "    " * indent
        wrote = False
        pending = []
        # Temps sunk to this branch region: declared at region entry,
        # before any condition or leaf referencing them.
        for code in self._region_temps.get(region, ()) if region else ():
            name, expr = code.split(" = ", 1)
            lines.append(f"{pad}uint64_t {name} = {expr};")
            wrote = True

        def flush():
            nonlocal wrote
            if not pending:
                return
            if in_loop or self._straightline:
                for code in pending:
                    lines.append(pad + code)
            else:
                lines.append(f"{pad}if (_wd) {{")
                for code in pending:
                    lines.append(f"{pad}    {code}")
                lines.append(f"{pad}}}")
            pending.clear()
            wrote = True

        for i, stmt in enumerate(body):
            loc = f"{path}[{i}]"
            if isinstance(stmt, ast.If):
                live = self._live_arms(stmt)
                if not live:
                    continue
                flush()
                first = True
                for cond, arm_body, j in live:
                    if cond is not None:
                        kw = "if" if first else "} else if"
                        rendered = self._render(cond)
                        lines.append(f"{pad}{kw} ({rendered}) {{")
                    else:
                        lines.append(
                            pad + ("if (1) {" if first else "} else {")
                        )
                    first = False
                    self._emit_pass2(
                        lines, arm_body, indent + 1, in_loop,
                        f"{loc}.arm[{j}].body",
                        region + ((id(stmt), j),),
                    )
                lines.append(f"{pad}}}")
                wrote = True
            elif isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                flush()
                cond = self._render(stmt.cond)
                lines.append(f"{pad}if ({cond}) {{")
                self._emit_pass2(
                    lines, stmt.body, indent + 1, True, f"{loc}.body",
                    region + ((id(stmt), -1),),
                )
                lines.append(f"{pad}}}")
                wrote = True
            else:
                if indent == 0 and self._straightline and not in_loop:
                    self._mark_unconditional(stmt)
                pending.append(self._leaf_code(stmt, loc))
        flush()
        return wrote

    # -- assembly -----------------------------------------------------------
    def _cycle_lines(self):
        roots = self._collect_roots()
        lines = []
        for i, reg in enumerate(self.program.regs):
            if reg in self._snap_regs:
                lines.append(f"uint64_t _o{i} = _r{i};")
        for hoist in self._hoist_lines(roots):
            name, body = hoist.split(" = ", 1)
            lines.append(f"uint64_t {name} = {body};")
        if not self._straightline:
            lines.append("int _wd = 1;")
            self._emit_pass1(lines, self.program.body, 0)
        # Pass 2 renders first: rendering discovers which pending writes
        # provably land every cycle (their sentinel test is dropped).
        body_lines = []
        self._emit_pass2(body_lines, self.program.body, 0, False)
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if sites == 1:
                if vreg in self._uncond_vregs:
                    lines.append(f"uint64_t _pvi{i} = 0, _pvv{i} = 0;")
                else:
                    lines.append(
                        f"uint64_t _pvi{i} = 0, _pvv{i} = 0; "
                        f"int _pvs{i} = 0;"
                    )
            elif sites > 1:
                lines.append(
                    f"uint64_t _pqi{i}[{sites}], _pqv{i}[{sites}]; "
                    f"int _pqn{i} = 0;"
                )
        for i, bram in enumerate(self.program.brams):
            if bram not in self.written_brams:
                continue
            if bram in self._uncond_brams:
                lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0;")
            else:
                lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0; "
                             f"int _pbs{i} = 0;")
        lines.extend(body_lines)
        # Commit: pending vreg/BRAM writes land together at end of cycle
        # (registers landed in place; emits appended directly).
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if vreg in self._uncond_vregs:
                self._elide("uncond_commits")
                lines.append(f"_v{i}[_pvi{i}] = _pvv{i};")
            elif sites == 1:
                lines.append(f"if (_pvs{i}) _v{i}[_pvi{i}] = _pvv{i};")
            elif sites > 1:
                lines.append(
                    f"for (int _q = 0; _q < _pqn{i}; _q++) "
                    f"_v{i}[_pqi{i}[_q]] = _pqv{i}[_q];"
                )
        for i, bram in enumerate(self.program.brams):
            if bram in self._uncond_brams:
                self._elide("uncond_commits")
                lines.append(f"_b{i}[_pbi{i}] = _pbv{i};")
            elif bram in self.written_brams:
                lines.append(f"if (_pbs{i}) _b{i}[_pbi{i}] = _pbv{i};")
        return lines

    def _emit_cycle_at(self, out, cycle, straightline, pad, err_ti):
        """Emit one virtual-cycle execution (loop or collapsed
        straight-line) writing ``_lvc`` with the cycle count."""
        if straightline:
            for line in cycle:
                out(pad + line)
            out(f"{pad}_lvc = 1;")
            return
        out(f"{pad}_lvc = 0;")
        out(f"{pad}for (;;) {{")
        out(f"{pad}    _lvc++;")
        for line in cycle:
            out(f"{pad}    " + line)
        out(f"{pad}    if (_wd) break;")
        out(f"{pad}    if (_lvc >= max_vc) {{")
        out(f"{pad}        err[0] = 1; err[1] = _lane; err[2] = {err_ti};")
        out(f"{pad}        return -1;")
        out(f"{pad}    }}")
        out(f"{pad}}}")

    def generate(self):
        program, unit = self.program, self.unit
        tok_cycle, tok_straight = self._render_cycle(0)
        fin_cycle, fin_straight = self._render_cycle(1)
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
        out(f"              uint64_t *regs{_sg_params(unit)},")
        out("              int64_t max_vc,")
        out("              uint64_t *out_vals, int64_t out_cap,")
        out("              int64_t *out_cnt,")
        out("              int32_t *vca, int32_t *ema, int64_t *err)")
        out("{")
        out("    int64_t _outn = 0;")
        out("    for (int64_t _lane = 0; _lane < N; _lane++) {")
        pad = " " * 8
        for i in range(len(program.regs)):
            row = unit.reg_loc[i][1]
            out(f"{pad}uint64_t _r{i} = regs[{row} * N + _lane];")
        for kind, prefix, decls in (("vreg", "_v", program.vregs),
                                    ("bram", "_b", program.brams)):
            for i in range(len(decls)):
                gid, member = unit.state_loc[(kind, i)]
                elements = unit.state_groups[gid][1]
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
        self._emit_cycle_at(out, tok_cycle, tok_straight, pad + "    ",
                            "_ti")
        out(f"{pad}    _vcr[_ti] = _lvc;")
        out(f"{pad}    _emr[_ti] = _emits;")
        out(f"{pad}}}")
        out(f"{pad}{{")
        out(f"{pad}    _emits = 0;")
        self._emit_cycle_at(out, fin_cycle, fin_straight, pad + "    ",
                            "_len")
        out(f"{pad}}}")
        out(f"{pad}_vcr[_len] = _lvc;")
        out(f"{pad}_emr[_len] = _emits;")
        out(f"{pad}out_cnt[_lane] = _outn - _start;")
        for i in range(len(program.regs)):
            row = unit.reg_loc[i][1]
            out(f"{pad}regs[{row} * N + _lane] = _r{i};")
        out("    }")
        out("    err[0] = 0;")
        out("    return 0;")
        out("}")
        return "\n".join(lines) + "\n"


def _sg_params(unit):
    return "".join(
        f", uint64_t *sg{g}" for g in range(len(unit.state_groups))
    )


class _CcKernel:
    """Handle to one program's compiled native kernel: ``lib``/``ffi``
    expose ``fleet_run``; ``source`` is the generated C (debugging and
    golden-snapshot hook); ``elisions`` counts what certified
    specialization deleted during the lowering."""

    __slots__ = ("lib", "ffi", "source", "elisions")

    def __init__(self, lib, ffi, source, elisions):
        self.lib = lib
        self.ffi = ffi
        self.source = source
        self.elisions = elisions


def compile_cc(program, unit, certificate=None):
    """Build the native kernel for ``program`` over the state layout of
    its :class:`~repro.interp.batch.BatchUnit` ``unit``.

    Certified-only: with ``certificate=None`` the (memoized)
    certificate is fetched via
    :func:`repro.lint.certificate.certificate_for`; a rejected, stale,
    or fact-less certificate is **refused** with a hard error, exactly
    like :func:`repro.interp.compile.compile_program`'s specialization
    path. Raises :class:`FleetSimulationError` when no C toolchain is
    available or the build fails.
    """
    from ..lint.certificate import certificate_for

    if certificate is None:
        certificate = certificate_for(program)
    if not certificate.ok:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate is rejected"
        )
    if not certificate.covers(program):
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate fingerprint does not match (stale or mismatched "
            "certificate)"
        )
    if certificate.facts is None:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate carries no specialization facts"
        )
    if not cc_available():
        raise FleetSimulationError(
            "no working C toolchain for the native tier "
            f"(FLEET_NATIVE={'off' if not _native.native_enabled() else 'auto'},"
            f" last error: {_native.last_error()!r})"
        )
    started = time.perf_counter() if _tm_enabled() else None
    try:
        codegen = _UnitCCodegen(program, certificate.facts, unit)
        source = codegen.generate()
    except _Unsupported as exc:
        raise FleetSimulationError(
            f"program {program.name!r} cannot take the native tier: "
            f"unsupported node {exc.args[0]!r}"
        ) from None
    cdef = (
        "int fleet_run(uint64_t *toks, int64_t *lens, "
        f"int64_t L, int64_t N, uint64_t *regs{_sg_params(unit)}, "
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
    return _CcKernel(lib, ffi, source, dict(codegen.elisions))


__all__ = [
    "cc_available",
    "compile_cc",
]
