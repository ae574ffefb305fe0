"""The certified compile-to-Python unit engine must be indistinguishable
from the interpreter: identical output tokens, identical per-token
virtual-cycle and emit traces, identical final architectural state — on
every shipped application and on randomized programs that certify.
Programs that do not certify run on the interpreter."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.apps import (
    block_frequencies_unit,
    identity_unit,
    sink_unit,
)
from repro.bench.catalog import catalog
from repro.interp import (
    CompiledSimulator,
    UnitSimulator,
    fast_engine_for,
    make_simulator,
    try_specialize,
)
from repro.lang import FleetError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _state(sim, unit):
    regs = {decl.name: sim.peek_reg(decl.name) for decl in unit.regs}
    brams = {decl.name: sim.peek_bram(decl.name) for decl in unit.brams}
    return regs, brams


def _differential(unit, stream):
    interp = make_simulator(unit, engine="interp")
    compiled = make_simulator(unit, engine="compiled-certified")
    assert interp.run(stream) == compiled.run(stream)
    assert interp.trace.vcycles_per_token == \
        compiled.trace.vcycles_per_token
    assert interp.trace.emits_per_token == compiled.trace.emits_per_token
    assert _state(interp, unit) == _state(compiled, unit)


@pytest.mark.parametrize("key", sorted(catalog()))
def test_catalog_apps_trace_exact(key):
    spec = catalog()[key]
    unit = (spec.profile_unit or spec.unit)()
    small, large = spec.stream_pairs(small=300, large=900)[0]
    _differential(unit, small)
    _differential(unit, large)


@pytest.mark.parametrize("make", [identity_unit, sink_unit,
                                  block_frequencies_unit])
def test_simple_units_trace_exact(make):
    unit = make()
    stream = [(i * 37 + 11) % 256 for i in range(400)]
    _differential(unit, stream)


def test_auto_engine_selects_compiled_for_shipped_apps():
    for key, spec in catalog().items():
        unit = (spec.profile_unit or spec.unit)()
        assert fast_engine_for(unit) is not None, key
        sim = make_simulator(unit)
        assert isinstance(sim, CompiledSimulator), key
        sim.run([1, 2, 3])


def test_fleet_engine_env_forces_interpreter(monkeypatch):
    monkeypatch.setenv("FLEET_ENGINE", "interp")
    unit = identity_unit()
    assert fast_engine_for(unit) is None
    sim = make_simulator(unit)
    assert isinstance(sim, UnitSimulator)
    assert sim.run([1, 2, 3]) == [1, 2, 3]


def _no_compiled_engine(monkeypatch):
    """Make every way to a compiled unit raise."""
    import repro.interp.compile as compile_mod

    def refuse(program):
        raise AssertionError("the interpreter asked for a compiled unit")

    for name in ("try_specialize", "fast_engine_for", "compile_program"):
        monkeypatch.setattr(compile_mod, name, refuse)


def test_incremental_api_stays_on_interpreter(monkeypatch):
    unit = block_frequencies_unit()
    stream = [(i * 37 + 11) % 256 for i in range(300)]
    want = make_simulator(unit).run(stream)
    _no_compiled_engine(monkeypatch)
    sim = UnitSimulator(unit)
    for token in stream:
        sim.process_token(token)
    sim.finish_stream()
    assert sim.outputs == want


def test_unit_simulator_run_only_interprets(monkeypatch):
    # A certified program's run() interprets: make_simulator is the one
    # place that chooses an engine for a stream.
    unit = block_frequencies_unit()
    assert fast_engine_for(unit) is not None
    stream = [(i * 37 + 11) % 256 for i in range(300)]
    reference = make_simulator(unit)
    want = reference.run(stream)
    _no_compiled_engine(monkeypatch)
    sim = UnitSimulator(unit)
    assert sim.run(stream) == want
    assert sim.trace.vcycles_per_token == reference.trace.vcycles_per_token
    assert _state(sim, unit) == _state(reference, unit)
    UnitSimulator(unit, engine="interp")  # the one value it accepts
    for engine in ("auto", "compiled-certified", "compiled"):
        with pytest.raises(FleetSimulationError, match="unknown engine"):
            UnitSimulator(unit, engine=engine)


def test_finished_stream_guards():
    # A finished stream takes no more input through any entry point
    # until reset.
    unit = block_frequencies_unit()
    sim = CompiledSimulator(unit, try_specialize(unit))
    stream = [(i * 37 + 11) % 256 for i in range(8)]
    expected = sim.run(stream)
    for feed in (lambda: sim.run([0]), lambda: sim.process_token(0),
                 sim.finish_stream):
        with pytest.raises(FleetSimulationError, match="already finished"):
            feed()
    sim.reset()
    assert sim.run(stream) == expected


# -- randomized differential ------------------------------------------------

def _random_expr(rnd, b, regs, vreg, bram, depth):
    if depth <= 0:
        leaf = rnd.randrange(5)
        if leaf == 0:
            return b.input
        if leaf == 1:
            return rnd.choice(regs)
        if leaf == 2:
            return b.const(rnd.randrange(256), 8)
        if leaf == 3:
            return vreg[rnd.randrange(4)]
        return bram[rnd.choice(regs)]
    op = rnd.randrange(10)
    lhs = _random_expr(rnd, b, regs, vreg, bram, depth - 1)
    if op == 8:
        return b.mux(
            _random_cond(rnd, b, regs, vreg, bram),
            lhs,
            _random_expr(rnd, b, regs, vreg, bram, depth - 1),
        )
    if op == 9:
        return ~lhs
    rhs = _random_expr(rnd, b, regs, vreg, bram, depth - 1)
    if op == 0:
        return lhs + rhs
    if op == 1:
        return lhs - rhs
    if op == 2:
        return lhs * rhs
    if op == 3:
        return lhs & rhs
    if op == 4:
        return lhs | rhs
    if op == 5:
        return lhs ^ rhs
    if op == 6:
        return lhs == rhs
    return lhs < rhs


def _random_cond(rnd, b, regs, vreg, bram):
    """A 1-bit expression (conditions must be single-bit)."""
    value = _random_expr(rnd, b, regs, vreg, bram, 1)
    kind = rnd.randrange(4)
    if kind == 0:
        return value == _random_expr(rnd, b, regs, vreg, bram, 0)
    if kind == 1:
        return value < _random_expr(rnd, b, regs, vreg, bram, 0)
    if kind == 2:
        return value.any()
    return value.bit(rnd.randrange(value.width))


def _random_statement(rnd, b, regs, vreg, bram, allow_blocks=True):
    kind = rnd.randrange(7 if allow_blocks else 5)
    if kind == 0:
        rnd.choice(regs).set(_random_expr(rnd, b, regs, vreg, bram, 2))
    elif kind == 1:
        vreg[_random_expr(rnd, b, regs, vreg, bram, 0)] = _random_expr(
            rnd, b, regs, vreg, bram, 2
        )
    elif kind == 2:
        bram[rnd.choice(regs)] = _random_expr(rnd, b, regs, vreg, bram, 2)
    elif kind in (3, 4):
        b.emit(_random_expr(rnd, b, regs, vreg, bram, 2))
    elif kind == 5:
        with b.when(_random_cond(rnd, b, regs, vreg, bram)):
            for _ in range(rnd.randrange(1, 3)):
                _random_statement(rnd, b, regs, vreg, bram,
                                  allow_blocks=False)
    else:
        # One bounded while: only the counter controls the condition, so
        # the loop always terminates within 2**4 virtual cycles.
        ctr = b.reg(f"ctr{rnd.randrange(10**6)}", width=5, init=0)
        with b.while_(ctr < rnd.randrange(2, 9)):
            ctr.set(ctr + 1)
            _random_statement(rnd, b, regs, vreg, bram, allow_blocks=False)
        ctr.set(0)


def build_random_unit(seed):
    rnd = random.Random(seed)
    b = UnitBuilder(f"fuzz_{seed & 0xffff}", input_width=8, output_width=8)
    regs = [
        b.reg(f"r{i}", width=rnd.choice((4, 8, 13)), init=rnd.randrange(8))
        for i in range(3)
    ]
    vreg = b.vreg("v", elements=4, width=8)
    bram = b.bram("m", elements=16, width=8)
    for _ in range(rnd.randrange(2, 6)):
        _random_statement(rnd, b, regs, vreg, bram)
    return b.finish()


@slow
@given(
    st.integers(min_value=0, max_value=2 ** 32),
    st.lists(st.integers(min_value=0, max_value=255), max_size=40),
)
def test_random_programs_trace_exact(seed, stream):
    """A certified program runs the compiled engine, trace-exact against
    the checking interpreter; an uncertified one (most of these: random
    conflicting writes) has no compiled unit and runs on the
    interpreter."""
    try:
        unit = build_random_unit(seed)
    except FleetError:
        # The generator occasionally produces statically rejected
        # programs (e.g. dependent BRAM reads); those never reach either
        # engine, so there is nothing to compare.
        assume(False)
    if certificate_for(unit).ok:
        _differential(unit, stream)
        return
    assert fast_engine_for(unit) is None
    with pytest.raises(FleetSimulationError, match="certified"):
        make_simulator(unit, engine="compiled-certified")
    assert isinstance(make_simulator(unit), UnitSimulator)
