"""Compile-to-Python fast engine for certified Fleet processing units.

The AST-walking interpreter in :mod:`repro.interp.simulator` pays Python
dispatch on every expression node of every virtual cycle. This module
prints a certified program's lowering (:mod:`repro.interp.lower`: the
token-phase and cleanup-phase cycles with every guard the certificate
proves redundant already deleted) *once* as straight-line Python,
compiles it with :func:`compile`/``exec``, and exposes the result as a
drop-in engine producing bit-identical outputs and the same
:class:`~repro.interp.trace.StreamTrace` per-token virtual-cycle counts.

The printed cycle mirrors the interpreter's two-pass virtual cycle:

* registers are unpacked into local variables for the whole stream and
  repacked at the end; vector registers and BRAMs stay Python lists,
  mutated in place;
* pass 1 computes ``_wd`` (while_done) with early-exit guards over only
  the statements that contain a live ``while``;
* pass 2 is the statement tree printed as nested ``if``s; vector and
  BRAM writes land in pending variables (sentinel-guarded) and commit at
  the end of the cycle, preserving the concurrent read-start-of-cycle
  semantics.

The engine is **certified-only**: a clean
:class:`~repro.lint.certificate.RestrictionCertificate` proves the
interpreter's dynamic restriction checks can never fire, so the printed
code performs none. Uncertified programs run on the interpreter. Set
``FLEET_ENGINE=interp`` to force the authoritative interpreter oracle
everywhere.
"""

import time

from ..envcfg import env_choice
from ..lang.errors import FleetLoopLimitError, FleetSimulationError
from ..lang.types import mask
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from .lower import certified_lowering
from .stream import as_token, as_tokens
from .trace import StreamTrace

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_ENGINE_SELECTED = _tm_counter(
    "fleet_interp_engine_selected_total",
    "Simulator engines handed out by make_simulator()",
    ("engine",),
)
_COMPILES = _tm_counter(
    "fleet_interp_compiles_total",
    "Unit programs lowered by the compiled engine",
)
_COMPILE_SECONDS = _tm_histogram(
    "fleet_interp_compile_seconds",
    "Wall-clock seconds per compiled-engine lowering",
)
_SPECIALIZATIONS = _tm_counter(
    "fleet_interp_specializations_total",
    "Certified-specialization attempts, by outcome",
    ("result",),
)
_SPECIALIZED_ELISIONS = _tm_counter(
    "fleet_interp_specialized_elisions_total",
    "Guards deleted at codegen time by certified specialization, by kind",
    ("kind",),
)


class _NoWrite:
    __slots__ = ()

    def __repr__(self):
        return "<no-write>"


#: Sentinel distinguishing "no pending write this cycle" from any value.
_NW = _NoWrite()


class CompiledUnit:
    """A certified Fleet program printed as specialized Python functions.

    ``run_token(token, sf, regs, vregs, brams, outputs, max_vc)`` runs one
    input token (or, with ``sf=1``, the post-stream cleanup) against the
    given state lists and returns ``(vcycles, emits)``.

    ``run_stream(tokens, regs, vregs, brams, outputs, max_vc, vclist,
    emlist)`` runs a whole stream plus the cleanup cycle, appending one
    per-token entry to ``vclist``/``emlist`` — the stream-level fast path
    with the token loop inside generated code.

    ``lowered`` is the :class:`~repro.interp.lower.LoweredProgram` the
    source was printed from; ``elisions`` counts what the certificate
    let the lowering delete.
    """

    __slots__ = ("program", "run_token", "run_stream", "source", "lowered")

    def __init__(self, program, run_token, run_stream, source, lowered):
        self.program = program
        self.run_token = run_token
        self.run_stream = run_stream
        self.source = source
        self.lowered = lowered

    @property
    def elisions(self):
        return self.lowered.elisions


# ---------------------------------------------------------------------------
# Python printer
# ---------------------------------------------------------------------------


def _py(e):
    """One lowered expression as Python."""
    tag = e[0]
    if tag == "k":
        return repr(e[1])
    if tag == "token":
        return "token"
    if tag == "var":
        return e[1]
    if tag == "index":
        return f"{e[1]}[{_py(e[2])}]"
    if tag in ("bin", "shift"):
        return f"({_py(e[2])} {e[1]} {_py(e[3])})"
    if tag == "mask":
        return f"({_py(e[1])} & {hex(mask(e[2]))})"
    if tag == "not":
        return f"(~{_py(e[1])})"
    if tag == "lnot":
        return f"({_py(e[1])} == 0)"
    if tag == "orr":
        return f"({_py(e[1])} != 0)"
    if tag == "andr":
        return f"({_py(e[1])} == {hex(mask(e[2]))})"
    if tag == "xorr":
        return f'(bin({_py(e[1])}).count("1") & 1)'
    if tag == "mux":
        return f"(({_py(e[2])}) if {_py(e[1])} else ({_py(e[3])}))"
    if tag == "shr_k":
        return f"({_py(e[1])} >> {e[2]})"
    out = _py(e[1])  # "cat"
    for width, part in e[2]:
        out = f"(({out} << {width}) | {_py(part)})"
    return out


_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _is_bool(e, bools):
    """Whether ``e`` prints as a Python value that may be a ``bool``:
    comparisons, logical not and the or/and reductions are, and ``&``,
    ``|``, ``^`` and a mux keep one; ``bools`` names the temporaries that
    may be."""
    tag = e[0]
    if tag in ("lnot", "orr", "andr"):
        return True
    if tag == "var":
        return e[1] in bools
    if tag == "bin":
        if e[1] in _COMPARISONS:
            return True
        return e[1] in ("&", "|", "^") and _is_bool(e[2], bools) \
            and _is_bool(e[3], bools)
    if tag == "mux":
        return _is_bool(e[2], bools) or _is_bool(e[3], bools)
    return False


def _bool_temps(cycle):
    """The names of ``cycle``'s temporaries that may hold a ``bool``,
    collected in definition order (a temporary's operands are defined
    before it)."""
    bools = set()

    def temps(pairs):
        for name, expr in pairs:
            if _is_bool(expr, bools):
                bools.add(name)

    def stmts(items):
        for item in items:
            if item[0] == "if":
                for _cond, block in item[1]:
                    temps(block[0])
                    stmts(block[1])
            elif item[0] == "while":
                temps(item[2][0])
                stmts(item[2][1])
            elif item[0] == "wd":
                stmts(item[1])

    temps(cycle.temps)
    stmts(cycle.body)
    return bools


def _py_value(e, bools):
    """A value bound for state or an emit: always an ``int``, as the
    interpreter and the C kernel produce (``True == 1``, so a leaked
    ``bool`` is a value-equal but visible difference)."""
    text = _py(e)
    return f"int({text})" if _is_bool(e, bools) else text


def _py_leaf(leaf, bools):
    tag = leaf[0]
    if tag == "set_reg":
        return f"_r{leaf[1]} = {_py_value(leaf[2], bools)}"
    if tag == "emit":
        return f"outputs.append({_py_value(leaf[1], bools)}); emits += 1"
    index, value = _py(leaf[2]), _py_value(leaf[3], bools)
    if tag == "set_vreg":
        return f"_pv{leaf[1]} = ({index}, {value})"
    if tag == "push_vreg":
        return f"_pv{leaf[1]}.append(({index}, {value}))"
    return f"_pb{leaf[1]} = ({index}, {value})"


def _py_arm(lines, pad, n, cond):
    if cond is None:
        lines.append(pad + ("else:" if n else "if 1:"))
    else:
        lines.append(f"{pad}{'elif' if n else 'if'} {_py(cond)}:")


def _py_block(lines, block, indent, bools):
    """A nested block: its sunk temporaries, then its statements."""
    temps, items = block
    pad = "    " * indent
    for name, expr in temps:
        lines.append(f"{pad}{name} = {_py(expr)}")
    _py_stmts(lines, items, indent, bools)
    if not (temps or items):
        lines.append(pad + "pass")


def _py_stmts(lines, items, indent, bools):
    pad = "    " * indent
    for item in items:
        tag = item[0]
        if tag == "if":
            for n, (cond, block) in enumerate(item[1]):
                _py_arm(lines, pad, n, cond)
                _py_block(lines, block, indent + 1, bools)
        elif tag == "while":
            lines.append(f"{pad}if {_py(item[1])}:")
            _py_block(lines, item[2], indent + 1, bools)
        elif tag == "wd":
            lines.append(pad + "if _wd:")
            _py_stmts(lines, item[1], indent + 1, bools)
        else:
            lines.append(pad + _py_leaf(item, bools))


def _py_pass1(lines, items, indent):
    """``_wd`` exactly as the interpreter's ``_any_loop_active``."""
    pad = "    " * indent
    for item in items:
        if item[0] == "while":
            lines.append(f"{pad}if _wd and {_py(item[1])}:")
            lines.append(f"{pad}    _wd = False")
            continue
        lines.append(pad + "if _wd:")
        for n, (cond, nested) in enumerate(item[1]):
            _py_arm(lines, pad + "    ", n, cond)
            _py_pass1(lines, nested, indent + 2)
            if not nested:
                lines.append(f"{pad}        pass")


def _py_cycle(cycle):
    """One virtual cycle, as source lines at relative indent 0."""
    lines = [f"_o{i} = _r{i}" for i in cycle.snapshots]
    lines += [f"{name} = {_py(expr)}" for name, expr in cycle.temps]
    if not cycle.straightline:
        lines.append("_wd = True")
        _py_pass1(lines, cycle.pass1, 0)
    for i, sites, uncond in cycle.vregs:
        if sites > 1:
            lines.append(f"_pv{i} = []")
        elif not uncond:
            lines.append(f"_pv{i} = _NW")
    for i, uncond in cycle.brams:
        if not uncond:
            lines.append(f"_pb{i} = _NW")
    _py_stmts(lines, cycle.body, 0, _bool_temps(cycle))
    # Commit: all pending writes land together at the end of the cycle.
    for i, sites, uncond in cycle.vregs:
        if uncond:
            lines.append(f"_v{i}[_pv{i}[0]] = _pv{i}[1]")
        elif sites == 1:
            lines.append(
                f"if _pv{i} is not _NW: _v{i}[_pv{i}[0]] = _pv{i}[1]"
            )
        else:
            lines.append(f"for _wi, _wx in _pv{i}: _v{i}[_wi] = _wx")
    for i, uncond in cycle.brams:
        if uncond:
            lines.append(f"_b{i}[_pb{i}[0]] = _pb{i}[1]")
        else:
            lines.append(
                f"if _pb{i} is not _NW: _b{i}[_pb{i}[0]] = _pb{i}[1]"
            )
    return lines


def _py_cycle_at(lines, straightline, cycle_lines, indent):
    """One virtual-cycle execution at ``indent``: the straight-line
    cycle (``vc`` implicitly 1), or the cycle loop — ``range`` drives
    the counter and the loop-limit check sits in the for/else (``_vcb``
    pre-clamps ``max_vc <= 0`` to "one cycle, then raise")."""
    pad = "    " * indent
    if straightline:
        # A fully-dead body still needs a syntactically valid block.
        lines.extend(pad + line for line in cycle_lines or ["pass"])
        return
    lines.append(pad + "for vc in range(1, _vcb):")
    lines.extend(pad + "    " + line for line in cycle_lines)
    lines.append(pad + "    if _wd:")
    lines.append(pad + "        break")
    lines.append(pad + "else:")
    lines.append(
        pad + '    raise _LoopError("while loop did not terminate within '
        '%d virtual cycles" % (max_vc,))'
    )


def _print_python(lowered):
    """``run_token`` (dispatching on ``sf`` between the two phase
    cycles) and ``run_stream`` (the token-phase cycle per input token,
    then the cleanup-phase cycle) as Python source."""
    tok, fin = lowered.token, lowered.cleanup
    tok_lines, fin_lines = _py_cycle(tok), _py_cycle(fin)
    unpack = (
        [f"    _r{i} = regs[{i}]" for i in range(lowered.n_regs)]
        + [f"    _v{i} = vregs[{i}]" for i in range(lowered.n_vregs)]
        + [f"    _b{i} = brams[{i}]" for i in range(lowered.n_brams)]
    )
    repack = [f"        regs[{i}] = _r{i}" for i in range(lowered.n_regs)]
    repack = repack or ["        pass"]
    bound = [] if tok.straightline and fin.straightline else [
        "    _vcb = max_vc + 1 if max_vc > 0 else 2"
    ]
    lines = ["def run_token(token, sf, regs, vregs, brams, outputs, max_vc):"]
    lines += unpack
    lines.append("    emits = 0")
    lines += bound
    lines.append("    try:")
    for header, cycle, cycle_lines in (("if sf:", fin, fin_lines),
                                       ("else:", tok, tok_lines)):
        lines.append("        " + header)
        if cycle.straightline:
            lines.append("            vc = 1")
        _py_cycle_at(lines, cycle.straightline, cycle_lines, 3)
    lines.append("    finally:")
    lines += repack
    lines.append("    return vc, emits")
    lines.append("")
    lines.append(
        "def run_stream(tokens, regs, vregs, brams, outputs, max_vc, "
        "vclist, emlist):"
    )
    lines += unpack
    lines += bound
    lines.append("    try:")
    lines.append("        for token in tokens:")
    lines.append(
        "            if not (isinstance(token, int) and 0 <= token <= "
        f"{mask(lowered.input_width)}):"
    )
    lines.append(
        '                raise _SimError("token %r does not fit the '
        f'declared {lowered.input_width}-bit input width" % (token,))'
    )
    lines.append("            emits = 0")
    _py_cycle_at(lines, tok.straightline, tok_lines, 3)
    lines.append("            vclist.append(1)" if tok.straightline
                 else "            vclist.append(vc)")
    lines.append("            emlist.append(emits)")
    lines.append("        emits = 0")
    _py_cycle_at(lines, fin.straightline, fin_lines, 2)
    lines.append("        vclist.append(1)" if fin.straightline
                 else "        vclist.append(vc)")
    lines.append("        emlist.append(emits)")
    lines.append("    finally:")
    lines += repack
    return "\n".join(lines) + "\n"


def unit_from_source(program, lowered, source):
    """Compile printed ``source`` into a :class:`CompiledUnit`."""
    namespace = {
        "_NW": _NW,
        "_SimError": FleetSimulationError,
        "_LoopError": FleetLoopLimitError,
    }
    code = compile(source, f"<fleet-specialized:{program.name}>", "exec")
    exec(code, namespace)
    return CompiledUnit(program, namespace["run_token"],
                        namespace["run_stream"], source, lowered)


def compile_program(program):
    """A fresh certified :class:`CompiledUnit` for ``program``.

    The lowering reads ``program``'s certificate
    (:func:`repro.lint.certificate.certificate_for`) itself. A program
    whose certificate is rejected or carries no facts is **refused**
    with :class:`FleetSimulationError` — never a silent fallback — as is
    a program whose BRAMs or vector registers have a non-power-of-two
    element count. Use :func:`try_specialize` for the optional variant,
    built once per program structure.
    """
    started = time.perf_counter() if _tm_enabled() else None
    lowered = certified_lowering(program, "specialization")
    unit = unit_from_source(program, lowered, _print_python(lowered))
    if started is not None:
        _COMPILES.inc()
        _COMPILE_SECONDS.observe(time.perf_counter() - started)
        for kind, count in lowered.elisions.items():
            if count:
                _SPECIALIZED_ELISIONS.inc(count, kind=kind)
    return unit


def try_specialize(program):
    """The certified :class:`CompiledUnit` for ``program``, or ``None``
    when it can't have one (uncertified, or unsupported by the
    lowering). The unit is built, or refused, once per program
    structure (:func:`repro.lint.certificate.artifacts_for`).
    """
    from ..lint.certificate import artifacts_for

    record = artifacts_for(program)
    if record.specialized is None:
        try:
            record.specialized = compile_program(program)
        except FleetSimulationError:
            # Remembered: the refusal is as deterministic as a build.
            record.specialized = False
            _SPECIALIZATIONS.inc(result="refused")
            return None
        _SPECIALIZATIONS.inc(result="specialized")
    return record.specialized or None


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


#: Engines selectable through the ``FLEET_ENGINE`` environment variable.
_ENGINE_CHOICES = ("auto", "interp")


def env_engine():
    """The validated ``FLEET_ENGINE`` environment setting (``"auto"``
    when unset or empty).

    A typo like ``FLEET_ENGINE=intrep`` would otherwise silently fall
    back to the default engine — precisely when the user is trying to
    pin one — so unknown values raise
    :class:`~repro.lang.errors.FleetConfigError` at the first
    engine-selection point instead (via the shared
    :func:`repro.envcfg.env_choice` validator).
    """
    return env_choice("FLEET_ENGINE", _ENGINE_CHOICES, "auto")


def fast_engine_for(program):
    """The certified :class:`CompiledUnit` to use for ``program``, or
    ``None`` when the interpreter must run (uncertified or unsupported
    program, or ``FLEET_ENGINE=interp``)."""
    if env_engine() == "interp":
        return None
    return try_specialize(program)


# ---------------------------------------------------------------------------
# Simulator-compatible driver
# ---------------------------------------------------------------------------


class CompiledSimulator:
    """Drop-in :class:`~repro.interp.simulator.UnitSimulator` replacement
    driving the :class:`CompiledUnit` ``unit`` built for ``program``
    (same incremental API, outputs, trace, and peek hooks)."""

    def __init__(self, program, unit, *, max_vcycles_per_token=1_000_000):
        self.program = program
        self.max_vcycles_per_token = max_vcycles_per_token
        self._unit = unit
        self.reset()

    def reset(self):
        self._reg_values = [r.init for r in self.program.regs]
        self._vregs = [[v.init] * v.elements for v in self.program.vregs]
        self._brams = [[0] * b.elements for b in self.program.brams]
        self._outputs = []
        self._finished = False
        self.trace = StreamTrace()

    @property
    def source(self):
        """The generated Python source (debugging hook)."""
        return self._unit.source

    def run(self, tokens):
        tokens = as_tokens(tokens)
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        vclist, emlist = [], []
        n = len(tokens)
        try:
            self._unit.run_stream(
                tokens, self._reg_values, self._vregs, self._brams,
                self._outputs, self.max_vcycles_per_token, vclist, emlist,
            )
        finally:
            for i in range(len(vclist)):
                self.trace.record_token(vclist[i], emlist[i], i == n)
            if len(vclist) == n + 1:
                self._finished = True
        return self.outputs

    def process_token(self, token):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        token = as_token(token, self.program.input_width)
        before = len(self._outputs)
        vc, emits = self._unit.run_token(
            token, 0, self._reg_values, self._vregs, self._brams,
            self._outputs, self.max_vcycles_per_token,
        )
        self.trace.record_token(vc, emits, False)
        return self._outputs[before:]

    def finish_stream(self):
        if self._finished:
            raise FleetSimulationError("stream already finished")
        before = len(self._outputs)
        vc, emits = self._unit.run_token(
            0, 1, self._reg_values, self._vregs, self._brams,
            self._outputs, self.max_vcycles_per_token,
        )
        self.trace.record_token(vc, emits, True)
        self._finished = True
        return self._outputs[before:]

    @property
    def outputs(self):
        return list(self._outputs)

    def peek_reg(self, name):
        for reg, value in zip(self.program.regs, self._reg_values):
            if reg.name == name:
                return value
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        for bram, data in zip(self.program.brams, self._brams):
            if bram.name == name:
                return list(data)
        raise FleetSimulationError(f"no BRAM named {name!r}")


def make_simulator(program, *, engine="auto"):
    """Build the simulator for one stream of ``program``: the one place
    a stream's engine is chosen, each choice counted in
    ``fleet_interp_engine_selected_total``.

    ``engine`` selects:

    * ``"auto"`` — the certified compiled unit when the program
      certifies (:func:`fast_engine_for`), else the interpreter.
    * ``"interp"`` — force the authoritative oracle.
    * ``"compiled-certified"`` — force the certified compiled unit
      (raises when the program is unsupported or not certified).

    A batch of streams, one stream included, runs on the C kernel
    through :func:`repro.interp.batch.run_batch_streams` instead.
    """
    from .simulator import UnitSimulator

    if engine == "compiled-certified":
        unit = try_specialize(program)
        if unit is None:
            raise FleetSimulationError(
                f"program {program.name!r} cannot take the certified "
                "compiled engine: not certified, or unsupported by the "
                "lowering"
            )
    elif engine == "auto":
        unit = fast_engine_for(program)
    elif engine == "interp":
        unit = None
    else:
        raise FleetSimulationError(f"unknown engine {engine!r}")
    if unit is not None:
        _ENGINE_SELECTED.inc(engine="compiled-certified")
        return CompiledSimulator(program, unit)
    _ENGINE_SELECTED.inc(engine="interp")
    return UnitSimulator(program)


__all__ = [
    "CompiledSimulator",
    "CompiledUnit",
    "compile_program",
    "env_engine",
    "fast_engine_for",
    "make_simulator",
    "try_specialize",
]
