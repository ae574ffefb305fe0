"""Fleet-to-RTL code generation (paper Section 4, Figure 4).

Given a validated :class:`~repro.lang.ast.UnitProgram`, produce an RTL
module with the paper's processing-unit IO interface::

    input  input_token[w_in]   input  input_valid    output input_ready
    output output_token[w_out] output output_valid   input  output_ready
    input  input_finished      output output_finished

and the paper's two-stage virtual-cycle pipeline:

* stage 1 — BRAM reads: read addresses are issued one real cycle early,
  using *next* register values (result forwarding), so read data is ready
  when the virtual cycle executes;
* stage 2 — register/BRAM writes and emits, committed when the virtual
  cycle finishes (``v_done``).

All the control described in the paper is generated here: the ``v``/``f``
registers for input/output stalls and end-of-stream, ``while_done`` for
loops, next-value muxes for registers, read-address muxes with
last-written-(address, data) forwarding registers per BRAM, and the
ready-valid handshake logic. The structure intentionally parallels the
paper's Figure 4 line by line; tests cross-check the result against the
functional simulator on every application.
"""

from ..lang import ast
from ..lang.errors import FleetSyntaxError
from ..lang.types import mask
from ..rtl import ir


class _Env:
    """Translation environment: how Fleet leaves map to IR values.

    ``cur`` maps registers to their current outputs (used for statement
    guards, values, and stall-stable read addresses); ``next`` maps them to
    their committed next values (used for the read addresses of the
    *upcoming* virtual cycle — the paper's result forwarding).
    """

    def __init__(self, name, reg_value, input_value, sf_value,
                 vreg_elem_value, bram_value, while_done=None):
        self.name = name
        self.reg_value = reg_value
        self.input_value = input_value
        self.sf_value = sf_value
        self.vreg_elem_value = vreg_elem_value
        self.bram_value = bram_value  # None = BRAM reads forbidden here
        self.while_done = while_done  # ir.Value, set once computed
        self._memo = {}

    def translate(self, node):
        key = id(node)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._translate(node)
            self._memo[key] = cached
        return cached

    def _translate(self, node):
        t = self.translate
        if isinstance(node, ast.Const):
            return ir.Const(node.value, node.width)
        if isinstance(node, ast.InputToken):
            return self.input_value
        if isinstance(node, ast.StreamFinished):
            return self.sf_value
        if isinstance(node, ast.RegRead):
            return self.reg_value(node.reg)
        if isinstance(node, ast.WireRead):
            # Wires are aliases; sharing is preserved because the defining
            # node is translated once (memoized by identity).
            return self.translate(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            return self._vreg_mux(node.vreg, t(node.index))
        if isinstance(node, ast.BramRead):
            if self.bram_value is None:
                raise FleetSyntaxError(
                    f"internal: BRAM read reached the {self.name!r} "
                    "environment (dependent-read checks should prevent this)"
                )
            return self.bram_value(node.bram)
        if isinstance(node, ast.BinOp):
            return ir.BinOp(node.op, t(node.lhs), t(node.rhs))
        if isinstance(node, ast.UnOp):
            return ir.UnOp(node.op, t(node.operand))
        if isinstance(node, ast.Mux):
            return ir.Mux(t(node.cond), t(node.then), t(node.els))
        if isinstance(node, ast.Slice):
            return ir.Slice(t(node.operand), node.hi, node.lo)
        if isinstance(node, ast.Concat):
            return ir.Concat([t(p) for p in node.parts])
        raise FleetSyntaxError(f"cannot translate {node!r}")

    def _vreg_mux(self, vreg, index_ir):
        """Random access into a register bank = a mux tree.

        The index is truncated to the bank's index width first, matching
        the simulators and the write-port comparison below — without
        this, an index expression wider than ``index_width`` never
        matches any element constant and the mux falls through to the
        last element (found by the differential fuzzer).
        """
        index_ir = ir.truncate(index_ir, vreg.index_width)
        value = self.vreg_elem_value(vreg, vreg.elements - 1)
        for k in range(vreg.elements - 2, -1, -1):
            value = ir.Mux(
                index_ir.eq(ir.Const(k, vreg.index_width)),
                self.vreg_elem_value(vreg, k),
                value,
            )
        return value

    def guard(self, terms, needs_while_done=False):
        """Translate a guard — ``(condition, polarity)`` terms, conjoined
        with ``while_done`` when ``needs_while_done`` — to a 1-bit IR
        value."""
        acc = None
        for cond, positive in terms:
            term = self.translate(cond)
            if not positive:
                term = term.lnot()
            acc = term if acc is None else acc & term
        if needs_while_done:
            wd = self.while_done
            acc = wd if acc is None else acc & wd
        return ir.Const(1, 1) if acc is None else acc


def _priority_mux(pairs, default):
    """First-match-wins mux chain; ``default`` when no guard is true."""
    acc = default
    for guard, value in reversed(pairs):
        acc = ir.Mux(guard, value, acc)
    return acc


def compile_unit(program, *, elide_forwarding=(), module_name=None,
                 insert_runtime_checks=False):
    """Compile a Fleet program to a finalized RTL module.

    ``elide_forwarding`` names BRAMs for which the user asserts that no
    virtual cycle reads an address written by the previous virtual cycle;
    their last-written forwarding registers are elided, as the paper allows
    (the software simulator can check the assertion on example streams).

    ``insert_runtime_checks`` adds the paper's other enforcement option
    ("we could insert logic to perform runtime checks"): a sticky
    ``restriction_error`` output that latches whenever a completing
    virtual cycle performs two same-BRAM reads at different addresses,
    two same-BRAM writes, or two emits.
    """
    sites = program.sites
    m = ir.Module(module_name or f"fleet_{program.name}")

    # -- IO interface (paper Section 4) -------------------------------------
    input_token = m.input("input_token", program.input_width)
    input_valid = m.input("input_valid", 1)
    output_ready = m.input("output_ready", 1)
    input_finished = m.input("input_finished", 1)

    # -- control state --------------------------------------------------------
    i_reg = m.reg("i", program.input_width)  # current input token
    v_reg = m.reg("v", 1)  # a virtual cycle is executing
    f_reg = m.reg("f", 1)  # the stream_finished virtual cycle has begun

    # -- program state ----------------------------------------------------------
    reg_q = {reg: m.reg(f"r_{reg.name}", reg.width, reg.init) for reg
             in program.regs}
    vreg_q = {
        vreg: [
            m.reg(f"vr_{vreg.name}_{k}", vreg.width, vreg.init)
            for k in range(vreg.elements)
        ]
        for vreg in program.vregs
    }
    bram_spec = {
        bram: m.bram(f"b_{bram.name}", bram.elements, bram.width)
        for bram in program.brams
    }
    forward_regs = {}
    for bram in program.brams:
        if bram.name in elide_forwarding or bram not in sites.writes:
            continue
        # One extra address bit holds the "never written" sentinel, so a
        # fresh unit never forwards (Figure 4 lines 10-11).
        last_addr = m.reg(
            f"b_{bram.name}_last_addr", bram.addr_width + 1,
            mask(bram.addr_width + 1),
        )
        last_data = m.reg(f"b_{bram.name}_last_data", bram.width)
        forward_regs[bram] = (last_addr, last_data)

    # -- current-value environment --------------------------------------------------
    bram_fwd_wire = {}  # filled in below; guards/addresses never need it

    cur = _Env(
        "cur",
        reg_value=lambda reg: reg_q[reg].q,
        input_value=i_reg.q,
        sf_value=f_reg.q,
        vreg_elem_value=lambda vreg, k: vreg_q[vreg][k].q,
        bram_value=lambda bram: bram_fwd_wire[bram],
    )

    # while_done (Figure 4 line 15): negation of the disjunction of all
    # loop guards. A loop guard that reads a BRAM needs the forwarded
    # read data, so its while_done comes after the read-data wires; the
    # dependent-read check then keeps every read off while_done.
    loop_guards = [loop.loop_guard for loop in sites.loops]
    guards_read = any(id(cond) in sites.reading_conds
                      for terms in loop_guards for cond, _ in terms)
    if not guards_read:
        cur.while_done = _while_done(m, "while_done", cur, loop_guards)

    # Current-cycle read addresses (read-free by the dependent-read rule),
    # then the forwarded read-data wires every other translation may use.
    cur_rd_addr = {}
    for bram in program.brams:
        reads = sites.reads.get(bram)
        if not reads:
            continue
        pairs = [
            (cur.guard(site.guard, site.needs_while_done),
             cur.translate(site.node.addr))
            for site in reads
        ]
        cur_rd_addr[bram] = m.wire(
            f"b_{bram.name}_cur_rd_addr",
            ir.truncate(
                _priority_mux(pairs[:-1], pairs[-1][1]),
                bram_spec[bram].addr_width,
            ),
        )
        spec = bram_spec[bram]
        if bram in forward_regs:
            last_addr, last_data = forward_regs[bram]
            fwd = ir.Mux(
                ir.Concat(
                    [ir.Const(0, 1), cur_rd_addr[bram]]
                ).eq(last_addr.q),
                last_data.q,
                spec.rd_data,
            )
        else:
            fwd = spec.rd_data
        bram_fwd_wire[bram] = m.wire(f"b_{bram.name}_rd", fwd)
    if guards_read:
        cur.while_done = _while_done(m, "while_done", cur, loop_guards)

    # -- emits and the output interface (Figure 4 lines 38-39) ----------------------
    emit_pairs = [
        (cur.guard(site.guard, site.needs_while_done),
         cur.translate(site.stmt.value))
        for site in sites.emits
    ]
    if emit_pairs:
        any_emit = _or_tree([g for g, _ in emit_pairs])
        token_value = ir.truncate(
            _priority_mux(emit_pairs[:-1], emit_pairs[-1][1]),
            program.output_width,
        )
    else:
        any_emit = ir.Const(0, 1)
        token_value = ir.Const(0, program.output_width)
    output_valid = m.output("output_valid", v_reg.q & any_emit)
    m.output("output_token", ir.zext(token_value, program.output_width))

    # -- virtual-cycle completion (Figure 4 line 14) --------------------------------
    v_done = m.wire(
        "v_done", v_reg.q & (output_valid.lnot() | output_ready)
    )

    # -- register next values (Figure 4 lines 17-18) --------------------------------
    reg_next = {}
    for reg in program.regs:
        pairs = [
            (cur.guard(site.guard, site.needs_while_done),
             cur.translate(site.stmt.value))
            for site in sites.reg_assigns.get(reg, ())
        ]
        reg_next[reg] = m.wire(
            f"r_{reg.name}_n",
            ir.truncate(_priority_mux(pairs, reg_q[reg].q), reg.width),
        )
        reg_q[reg].next = reg_next[reg]
        reg_q[reg].enable = v_done

    vreg_next = {}
    for vreg in program.vregs:
        translated = [
            (cur.guard(site.guard, site.needs_while_done),
             cur.translate(site.stmt.index), cur.translate(site.stmt.value))
            for site in sites.vreg_assigns.get(vreg, ())
        ]
        nexts = []
        for k, spec in enumerate(vreg_q[vreg]):
            pairs = [
                (
                    guard_ir
                    & ir.truncate(index_ir, vreg.index_width).eq(
                        ir.Const(k, vreg.index_width)
                    ),
                    value_ir,
                )
                for guard_ir, index_ir, value_ir in translated
            ]
            next_wire = m.wire(
                f"vr_{vreg.name}_{k}_n",
                ir.truncate(_priority_mux(pairs, spec.q), vreg.width),
            )
            spec.next = next_wire
            spec.enable = v_done
            nexts.append(next_wire)
        vreg_next[vreg] = nexts

    # -- next-value environment for read forwarding (Figure 4 line 29) ---------------
    # Effective next values: when the virtual cycle is not finishing
    # (stalled, or no cycle in flight), registers hold, so "next" is the
    # current value. This also covers accepting a token from idle.
    reg_next_eff = {
        reg: m.wire(
            f"r_{reg.name}_ne", ir.Mux(v_done, reg_next[reg], reg_q[reg].q)
        )
        for reg in program.regs
    }
    vreg_next_eff = {
        vreg: [
            m.wire(
                f"vr_{vreg.name}_{k}_ne",
                ir.Mux(v_done, vreg_next[vreg][k], vreg_q[vreg][k].q),
            )
            for k in range(vreg.elements)
        ]
        for vreg in program.vregs
    }
    sf_next = m.wire(
        "sf_next", f_reg.q | (input_finished & input_valid.lnot())
    )

    nxt = _Env(
        "next",
        reg_value=lambda reg: reg_next_eff[reg],
        input_value=input_token,
        sf_value=sf_next,
        vreg_elem_value=lambda vreg, k: vreg_next_eff[vreg][k],
        bram_value=None,  # read addresses are read-free by construction
    )
    if not guards_read:
        nxt.while_done = _while_done(m, "while_done_n", nxt, loop_guards)

    # -- handshake logic (Figure 4 lines 37, 40-45) ----------------------------------
    input_ready = m.output(
        "input_ready",
        v_reg.q.lnot()
        | (cur.while_done & (output_valid.lnot() | output_ready)),
    )
    i_reg.next = input_token
    i_reg.enable = input_ready
    v_reg.next = input_valid | (f_reg.q.lnot() & input_finished)
    v_reg.enable = input_ready
    f_reg.next = f_reg.q | input_finished
    f_reg.enable = input_ready
    m.output("output_finished", v_reg.q.lnot() & f_reg.q)

    # -- BRAM ports (Figure 4 lines 30, 33-35) ----------------------------------------
    # A new virtual cycle's read address is issued while the previous one
    # finishes (v_done) or while a token is being accepted from idle
    # (input_ready covers that case); otherwise hold the current address so
    # read data stays stable across stalls.
    issue_next = m.wire("issue_next", v_done | input_ready)
    for bram in program.brams:
        spec = bram_spec[bram]
        reads = sites.reads.get(bram)
        if reads:
            next_pairs = [
                (nxt.guard(site.guard, site.needs_while_done),
                 nxt.translate(site.node.addr))
                for site in reads
            ]
            next_addr = ir.truncate(
                _priority_mux(next_pairs[:-1], next_pairs[-1][1]),
                spec.addr_width,
            )
            spec.rd_addr = ir.Mux(issue_next, next_addr, cur_rd_addr[bram])
        else:
            spec.rd_addr = ir.Const(0, spec.addr_width)

        writes = sites.writes.get(bram)
        if writes:
            write_pairs = [
                (
                    cur.guard(site.guard, site.needs_while_done),
                    cur.translate(site.stmt.addr),
                    cur.translate(site.stmt.value),
                )
                for site in writes
            ]
            any_write = _or_tree([g for g, _, _ in write_pairs])
            wr_addr = ir.truncate(
                _priority_mux(
                    [(g, a) for g, a, _ in write_pairs[:-1]],
                    write_pairs[-1][1],
                ),
                spec.addr_width,
            )
            wr_data = _priority_mux(
                [(g, d) for g, _, d in write_pairs[:-1]],
                write_pairs[-1][2],
            )
            spec.wr_en = v_done & any_write
            spec.wr_addr = wr_addr
            spec.wr_data = wr_data
            if bram in forward_regs:
                last_addr, last_data = forward_regs[bram]
                last_addr.next = ir.Concat([ir.Const(0, 1), wr_addr])
                last_addr.enable = spec.wr_en
                last_data.next = wr_data
                last_data.enable = spec.wr_en
        else:
            spec.wr_en = ir.Const(0, 1)
            spec.wr_addr = ir.Const(0, spec.addr_width)
            spec.wr_data = ir.Const(0, spec.width)

    if insert_runtime_checks:
        _insert_runtime_checks(m, program, sites, cur, v_done)

    return m.finalize()


def _insert_runtime_checks(m, program, sites, cur, v_done):
    """Latch a sticky error flag on any same-cycle restriction violation
    (pairwise guard checks over the program's access sites)."""
    violations = []
    for bram in program.brams:
        reads = [
            (cur.guard(site.guard, site.needs_while_done),
             cur.translate(site.node.addr))
            for site in sites.reads.get(bram, ())
        ]
        for i in range(len(reads)):
            for j in range(i + 1, len(reads)):
                gi, ai = reads[i]
                gj, aj = reads[j]
                width = max(ai.width, aj.width)
                violations.append(
                    gi & gj & ir.zext(ai, width).ne(ir.zext(aj, width))
                )
        write_guards = [
            cur.guard(site.guard, site.needs_while_done)
            for site in sites.writes.get(bram, ())
        ]
        for i in range(len(write_guards)):
            for j in range(i + 1, len(write_guards)):
                violations.append(write_guards[i] & write_guards[j])
    emit_guards = [cur.guard(site.guard, site.needs_while_done)
                   for site in sites.emits]
    for i in range(len(emit_guards)):
        for j in range(i + 1, len(emit_guards)):
            violations.append(emit_guards[i] & emit_guards[j])

    if violations:
        any_violation = violations[0]
        for value in violations[1:]:
            any_violation = any_violation | value
        violation_now = m.wire("restriction_violation", any_violation)
        error = m.reg("restriction_error_r", 1)
        error.next = error.q | (v_done & violation_now)
        m.output("restriction_error", error.q)
    else:
        m.output("restriction_error", ir.Const(0, 1))


def _while_done(m, name, env, loop_guards):
    """The ``while_done`` wire: no loop guard holds in ``env``."""
    actives = [env.guard(terms) for terms in loop_guards]
    return m.wire(
        name, _or_tree(actives).lnot() if actives else ir.Const(1, 1)
    )


def _or_tree(values):
    acc = values[0]
    for value in values[1:]:
        acc = acc | value
    return acc
