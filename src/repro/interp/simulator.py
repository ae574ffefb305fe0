"""Software simulator for Fleet processing units.

This is the reproduction of the paper's "software simulator" (Sections 3
and 6): it runs a Fleet program one virtual cycle at a time against an input
stream, producing the output stream, and dynamically detects every language
restriction violation:

* dependent BRAM reads,
* more than one BRAM read address or more than one BRAM write per virtual
  cycle,
* more than one emit per virtual cycle,
* conflicting concurrent assignments (two executed assignments to the same
  register, or to the same vector-register/BRAM address).

Semantics implemented here (and cross-checked against the compiled RTL by
the test suite):

* All expressions read the state *at the start of* the virtual cycle; all
  writes commit together at its end (concurrent semantics, as in Chisel).
* A ``while`` loop whose condition (conjoined with its enclosing ``if``
  conditions) is true executes its body for one virtual cycle without
  consuming the input token. Statements outside every loop execute only on
  the virtual cycle where no loop is active (``while_done``), which is also
  when the input token is consumed.
* After the last input token, the logic runs once more with a dummy token
  and ``stream_finished`` true (including any while-loop virtual cycles
  that cleanup triggers).
"""

from ..lang import ast
from ..lang.errors import (
    FleetAddressError,
    FleetAssignConflictError,
    FleetDependentReadError,
    FleetEmitConflictError,
    FleetLoopLimitError,
    FleetReadPortError,
    FleetSimulationError,
    FleetWritePortError,
)
from ..lang.types import mask, truncate
from ..ops import eval_binop, eval_unop
from .stream import as_token
from .trace import StreamTrace


class VirtualCycle:
    """What happened during one virtual cycle (for tests and tracing)."""

    __slots__ = ("emitted", "while_done")

    def __init__(self, emitted, while_done):
        self.emitted = emitted  # output token or None
        self.while_done = while_done  # whether the input token was consumed


class _Actions:
    """Writes and emits collected during one virtual cycle, applied at the
    end to give concurrent semantics."""

    def __init__(self):
        self.reg_writes = {}  # RegDecl -> value
        self.vreg_writes = {}  # VectorRegDecl -> {index: value}
        self.bram_writes = {}  # BramDecl -> (addr, value)
        self.bram_reads = {}  # BramDecl -> set of addresses read
        self.emitted = None
        self.emit_count = 0


class UnitSimulator:
    """Runs one Fleet processing unit on one stream of tokens, checking
    every restriction on every virtual cycle.

    The simulator is incremental: feed tokens with :meth:`process_token`
    and finish with :meth:`finish_stream`, or run a whole stream with
    :meth:`run`. Per-token virtual-cycle counts are recorded in
    :attr:`trace` — the full-system performance simulator replays them.

    This is the interpreter and nothing else: the authoritative oracle
    every engine is tested against. :func:`repro.interp.make_simulator`
    chooses the engine for one stream. ``engine`` accepts only
    ``"interp"``; any other value raises :class:`FleetSimulationError`.
    Address range checks and the loop-cycle limit are simulation (not
    restriction) errors, and are checked too.
    """

    def __init__(self, program, *, max_vcycles_per_token=1_000_000,
                 engine="interp"):
        if engine != "interp":
            raise FleetSimulationError(
                f"unknown engine {engine!r}: UnitSimulator is the "
                "interpreter ('interp'); make_simulator chooses engines"
            )
        self.program = program
        self.max_vcycles_per_token = max_vcycles_per_token
        self.reset()

    def reset(self):
        """Restore all state elements to their initial values."""
        self._regs = {r: r.init for r in self.program.regs}
        self._vregs = {
            v: [v.init] * v.elements for v in self.program.vregs
        }
        self._brams = {b: [0] * b.elements for b in self.program.brams}
        self._outputs = []
        self._finished = False
        self._has_read_cache = {}
        self.trace = StreamTrace()

    def _has_read(self, expr):
        cached = self._has_read_cache.get(id(expr))
        if cached is None:
            cached = ast.contains_bram_read(expr)
            self._has_read_cache[id(expr)] = cached
        return cached

    # -- public driving API ---------------------------------------------------
    def run(self, tokens):
        """Process an entire stream (then the cleanup cycle); return the
        complete output token list."""
        for token in tokens:
            self.process_token(token)
        self.finish_stream()
        return self.outputs

    def process_token(self, token):
        """Feed one input token; returns the outputs it produced."""
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        token = as_token(token, self.program.input_width)
        return self._process(token, stream_finished=False)

    def finish_stream(self):
        """Run the post-stream cleanup virtual cycles (``stream_finished``
        true, dummy input token); returns the outputs they produced."""
        if self._finished:
            raise FleetSimulationError("stream already finished")
        outputs = self._process(0, stream_finished=True)
        self._finished = True
        return outputs

    @property
    def outputs(self):
        """All output tokens produced so far."""
        return list(self._outputs)

    def peek_reg(self, name):
        """Read a register's current value by name (testing hook)."""
        for reg, value in self._regs.items():
            if reg.name == name:
                return value
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        """Read a BRAM's current contents by name (testing hook)."""
        for bram, data in self._brams.items():
            if bram.name == name:
                return list(data)
        raise FleetSimulationError(f"no BRAM named {name!r}")

    # -- token processing -------------------------------------------------------
    def _process(self, token, stream_finished):
        produced = []
        vcycles = 0
        while True:
            cycle = self._virtual_cycle(token, stream_finished)
            vcycles += 1
            if cycle.emitted is not None:
                produced.append(cycle.emitted)
            if cycle.while_done:
                break
            if vcycles >= self.max_vcycles_per_token:
                raise FleetLoopLimitError(
                    f"while loop did not terminate within "
                    f"{self.max_vcycles_per_token} virtual cycles"
                )
        self._outputs.extend(produced)
        self.trace.record_token(vcycles, len(produced), stream_finished)
        return produced

    def _virtual_cycle(self, token, stream_finished):
        # Pass 1 (uncounted): is any while loop active this virtual cycle?
        self._eval_memo = {}
        while_done = not self._any_loop_active(
            self.program.body, token, stream_finished, guard=True
        )
        # Pass 2 (counted): execute the statements that fire this cycle.
        # A fresh memo keeps read-port accounting attached to this pass.
        self._eval_memo = {}
        actions = _Actions()
        self._exec_block(
            self.program.body,
            token,
            stream_finished,
            guard=True,
            guard_has_read=False,
            in_loop=False,
            while_done=while_done,
            actions=actions,
        )
        self._commit(actions)
        return VirtualCycle(actions.emitted, while_done)

    def _any_loop_active(self, body, token, stream_finished, guard):
        for stmt in body:
            if isinstance(stmt, ast.While):
                if guard and self._eval(stmt.cond, token, stream_finished):
                    return True
            elif isinstance(stmt, ast.If):
                taken = False
                for cond, arm_body in stmt.arms:
                    arm_guard = guard and not taken
                    if cond is not None:
                        value = (
                            bool(self._eval(cond, token, stream_finished))
                            if arm_guard
                            else False
                        )
                        if arm_guard and value:
                            taken = True
                        arm_guard = arm_guard and value
                    if arm_guard and self._any_loop_active(
                        arm_body, token, stream_finished, arm_guard
                    ):
                        return True
        return False

    def _exec_block(self, body, token, stream_finished, guard,
                    guard_has_read, in_loop, while_done, actions):
        for stmt in body:
            if isinstance(stmt, ast.If):
                taken = False
                for cond, arm_body in stmt.arms:
                    arm_guard = guard and not taken
                    arm_has_read = guard_has_read
                    if cond is not None:
                        if arm_guard:
                            value = bool(
                                self._eval(
                                    cond, token, stream_finished,
                                    actions=actions,
                                    guard_has_read=guard_has_read,
                                )
                            )
                            if value:
                                taken = True
                            arm_has_read = (
                                guard_has_read
                                or self._has_read(cond)
                            )
                            arm_guard = value
                        else:
                            arm_guard = False
                    if arm_guard:
                        self._exec_block(
                            arm_body, token, stream_finished, arm_guard,
                            arm_has_read, in_loop, while_done, actions,
                        )
            elif isinstance(stmt, ast.While):
                if guard:
                    active = bool(
                        self._eval(
                            stmt.cond, token, stream_finished,
                            actions=actions,
                            guard_has_read=guard_has_read,
                        )
                    )
                else:
                    active = False
                if active:
                    self._exec_block(
                        stmt.body, token, stream_finished, active,
                        guard_has_read or self._has_read(stmt.cond),
                        True, while_done, actions,
                    )
            else:
                # Leaf statements outside every while loop fire only on the
                # while_done virtual cycle (paper Section 3).
                if guard and (in_loop or while_done):
                    self._exec_leaf(
                        stmt, token, stream_finished, guard_has_read, actions
                    )

    def _exec_leaf(self, stmt, token, stream_finished, guard_has_read,
                   actions):
        ev = lambda e: self._eval(  # noqa: E731 - local shorthand
            e, token, stream_finished, actions=actions,
            guard_has_read=guard_has_read,
        )
        if isinstance(stmt, ast.RegAssign):
            value = truncate(ev(stmt.value), stmt.reg.width)
            if stmt.reg in actions.reg_writes:
                raise FleetAssignConflictError(
                    f"register {stmt.reg.name!r} assigned twice in one "
                    "virtual cycle (assignment conditions must be mutually "
                    "exclusive)"
                )
            actions.reg_writes[stmt.reg] = value
        elif isinstance(stmt, ast.VectorRegAssign):
            index = self._vreg_index(stmt.vreg, ev(stmt.index))
            value = truncate(ev(stmt.value), stmt.vreg.width)
            writes = actions.vreg_writes.setdefault(stmt.vreg, {})
            if index in writes:
                raise FleetAssignConflictError(
                    f"vector register {stmt.vreg.name!r}[{index}] assigned "
                    "twice in one virtual cycle"
                )
            writes[index] = value
        elif isinstance(stmt, ast.BramWrite):
            addr = self._bram_addr(stmt.bram, ev(stmt.addr))
            value = truncate(ev(stmt.value), stmt.bram.width)
            if stmt.bram in actions.bram_writes:
                raise FleetWritePortError(
                    f"BRAM {stmt.bram.name!r} written twice in one virtual "
                    "cycle (one write port per virtual cycle)"
                )
            actions.bram_writes[stmt.bram] = (addr, value)
        elif isinstance(stmt, ast.Emit):
            value = truncate(ev(stmt.value), self.program.output_width)
            actions.emit_count += 1
            if actions.emit_count > 1:
                raise FleetEmitConflictError(
                    "more than one emit in a single virtual cycle (output "
                    "tokens would have no defined order)"
                )
            actions.emitted = value
        else:
            raise FleetSimulationError(f"unexpected statement {stmt!r}")

    # -- expression evaluation -----------------------------------------------------
    def _eval(self, node, token, stream_finished, actions=None,
              guard_has_read=False, in_read_addr=False):
        if isinstance(node, ast.Const):
            return node.value
        if isinstance(node, ast.InputToken):
            return token
        if isinstance(node, ast.StreamFinished):
            return int(stream_finished)
        if isinstance(node, ast.RegRead):
            return self._regs[node.reg]
        # Composite nodes are memoized per virtual-cycle pass: expressions
        # form DAGs (wires, reused sub-expressions) and every distinct node
        # — like every piece of hardware — computes exactly once per cycle.
        memo = self._eval_memo
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        ev = lambda n, ira=in_read_addr: self._eval(  # noqa: E731
            n, token, stream_finished, actions=actions,
            guard_has_read=guard_has_read, in_read_addr=ira,
        )
        result = self._eval_composite(
            node, ev, token, stream_finished, actions,
            guard_has_read, in_read_addr,
        )
        memo[id(node)] = result
        return result

    def _eval_composite(self, node, ev, token, stream_finished, actions,
                        guard_has_read, in_read_addr):
        if isinstance(node, ast.WireRead):
            return ev(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            index = self._vreg_index(node.vreg, ev(node.index))
            return self._vregs[node.vreg][index]
        if isinstance(node, ast.BramRead):
            if actions is not None:
                if in_read_addr:
                    raise FleetDependentReadError(
                        f"dependent BRAM read: address of a read of "
                        f"{node.bram.name!r} contains another BRAM read"
                    )
                if guard_has_read:
                    raise FleetDependentReadError(
                        f"dependent BRAM read of {node.bram.name!r}: gated "
                        "by a condition that reads a BRAM"
                    )
            addr = self._bram_addr(node.bram, ev(node.addr, True))
            if actions is not None:
                addrs = actions.bram_reads.setdefault(node.bram, set())
                addrs.add(addr)
                if len(addrs) > 1:
                    raise FleetReadPortError(
                        f"BRAM {node.bram.name!r} read at two addresses "
                        f"{sorted(addrs)} in one virtual cycle (one read "
                        "port per virtual cycle)"
                    )
            return self._brams[node.bram][addr]
        if isinstance(node, ast.BinOp):
            return eval_binop(
                node.op, ev(node.lhs), ev(node.rhs),
                node.lhs.width, node.rhs.width,
            )
        if isinstance(node, ast.UnOp):
            return eval_unop(node.op, ev(node.operand), node.operand.width)
        if isinstance(node, ast.Mux):
            # Both arms are evaluated, as in hardware: a BRAM read in a mux
            # arm occupies the read port whether or not it is selected.
            cond = ev(node.cond)
            then = ev(node.then)
            els = ev(node.els)
            return then if cond else els
        if isinstance(node, ast.Slice):
            return (ev(node.operand) >> node.lo) & mask(node.width)
        if isinstance(node, ast.Concat):
            value = 0
            for part in node.parts:
                value = (value << part.width) | ev(part)
            return value
        raise FleetSimulationError(f"unknown expression node {node!r}")

    # -- helpers ---------------------------------------------------------------
    def _bram_addr(self, bram, raw):
        addr = truncate(raw, bram.addr_width)
        if addr >= bram.elements:
            raise FleetAddressError(
                f"BRAM {bram.name!r} address {addr} out of range "
                f"(elements={bram.elements})"
            )
        return addr

    def _vreg_index(self, vreg, raw):
        index = truncate(raw, vreg.index_width)
        if index >= vreg.elements:
            raise FleetAddressError(
                f"vector register {vreg.name!r} index {index} out of range "
                f"(elements={vreg.elements})"
            )
        return index

    def _commit(self, actions):
        for reg, value in actions.reg_writes.items():
            self._regs[reg] = value
        for vreg, writes in actions.vreg_writes.items():
            store = self._vregs[vreg]
            for index, value in writes.items():
                store[index] = value
        for bram, (addr, value) in actions.bram_writes.items():
            self._brams[bram][addr] = value
