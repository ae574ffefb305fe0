"""The batch engine must be indistinguishable from N independent
compiled-engine runs: identical output tokens, identical per-token
virtual-cycle and emit traces, identical final architectural state —
across ragged batches, empty streams, and batch-of-1. It runs certified
programs only: forced batching of anything else is a typed error, and
automatic selection declines, counted by reason."""

import random
import zlib

import pytest

from repro.apps import (
    block_frequencies_unit,
    bloom_filter_unit,
    identity_unit,
    int_coding_unit,
    regex_match_unit,
    smith_waterman_unit,
)
from repro.interp import (
    CompiledSimulator,
    batch_engine_for,
    batch_support,
    compile_batch,
    compile_program,
    env_engine,
    fast_engine_for,
    make_simulator,
    run_batch_streams,
    try_specialize,
)
from repro.lang import FleetConfigError, FleetRestrictionError, UnitBuilder
from repro.lang.errors import FleetEmitConflictError, FleetSimulationError

needs_kernel = pytest.mark.needs_kernel

APPS = {
    "identity": (identity_unit, lambda rng: rng.randrange(256)),
    "block_frequencies": (block_frequencies_unit,
                          lambda rng: rng.randrange(256)),
    "bloom_filter": (bloom_filter_unit, lambda rng: rng.randrange(256)),
    "int_coding": (int_coding_unit, lambda rng: rng.randrange(256)),
    "regex_match": (regex_match_unit,
                    lambda rng: rng.choice(b"ab.@x \nuser@host.com")),
    "smith_waterman": (smith_waterman_unit, lambda rng: rng.randrange(4)),
}


def _ragged_streams(sample, *, lanes=7, tokens=60, seed=0):
    rng = random.Random(seed)
    streams = [
        [sample(rng) for _ in range(rng.randrange(tokens))]
        for _ in range(lanes)
    ]
    streams[1] = []  # always cover an empty lane
    return streams


def _reference(program, stream):
    sim = CompiledSimulator(program, compile_program(program))
    outputs = sim.run(stream)
    regs = {r.name: sim.peek_reg(r.name) for r in program.regs}
    brams = {b.name: sim.peek_bram(b.name) for b in program.brams}
    return (outputs, sim.trace.vcycles_per_token,
            sim.trace.emits_per_token, regs, brams)


def _check_batch(program, streams, unit=None):
    result = run_batch_streams(program, streams, unit=unit, traces=True)
    for lane, stream in enumerate(streams):
        outputs, vcycles, emits, regs, brams = _reference(program, stream)
        assert result.outputs[lane] == outputs, lane
        assert result.traces[lane].vcycles_per_token == vcycles, lane
        assert result.traces[lane].emits_per_token == emits, lane
        assert result.reg_state(lane) == regs, lane
        for name, contents in brams.items():
            assert result.peek_bram(lane, name) == contents, (lane, name)
    return result


@needs_kernel
@pytest.mark.parametrize("key", sorted(APPS))
def test_apps_ragged_batch_trace_exact(key):
    make, sample = APPS[key]
    program = make()
    # crc32, not hash(): string hashes are salted per process.
    seed = zlib.crc32(key.encode()) & 0xFF
    _check_batch(program, _ragged_streams(sample, seed=seed))


@needs_kernel
@pytest.mark.parametrize("key", ["block_frequencies", "int_coding"])
def test_batch_of_one_matches_compiled(key):
    make, sample = APPS[key]
    program = make()
    rng = random.Random(3)
    _check_batch(program, [[sample(rng) for _ in range(120)]])


def _served_kernel_apps():
    from repro.serve import catalog_apps
    from repro.serve.server import default_apps

    apps = {**default_apps(), **catalog_apps()}
    return {name: app for name, app in apps.items()
            if name != "decision_tree"}  # 112-bit state: no kernel


@needs_kernel
@pytest.mark.parametrize("name", sorted(_served_kernel_apps()))
def test_bytes_lanes_match_list_lanes(name):
    # Serve hands the kernel byte strings: every lane, including an
    # empty one and one behind the app's served header, must run as it
    # does from a list of int tokens.
    app = _served_kernel_apps()[name]
    program = app.unit_factory()
    rng = random.Random(name)
    lanes = [bytes(rng.randrange(256) for _ in range(rng.randrange(90)))
             for _ in range(5)]
    lanes[1] = b""
    lanes[3] = app.header + lanes[3]
    unit = batch_engine_for(program)
    assert unit is not None
    via_bytes = run_batch_streams(program, lanes, unit=unit, traces=True)
    via_list = run_batch_streams(program, [list(lane) for lane in lanes],
                                 unit=unit, traces=True)
    assert via_bytes.outputs == via_list.outputs
    assert via_bytes.vcycles == via_list.vcycles
    for lane in range(len(lanes)):
        got, want = via_bytes.traces[lane], via_list.traces[lane]
        assert got.vcycles_per_token == want.vcycles_per_token, lane
        assert got.emits_per_token == want.emits_per_token, lane
        assert via_bytes.vcycles[lane] == got.total_vcycles, lane
        assert via_bytes.reg_state(lane) == via_list.reg_state(lane)
        for bram in program.brams:
            assert (via_bytes.peek_bram(lane, bram.name)
                    == via_list.peek_bram(lane, bram.name)), bram.name
    assert via_bytes.stats.lane_vcycles == via_bytes.vcycles


@needs_kernel
def test_sub_byte_unit_rejects_a_wide_byte_like_a_wide_token():
    from repro.testing.spec import build_unit

    program = build_unit({
        "name": "two_bit", "input_width": 2, "output_width": 2,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["input"]]],
    })
    unit = compile_batch(program)
    # In range, bytes are tokens (cleanup emits its dummy token, 0).
    assert run_batch_streams(program, [bytes([3, 0, 2])],
                             unit=unit).outputs == [[3, 0, 2, 0]]
    errors = []
    for lane in (bytes([1, 9, 2]), [1, 9, 2]):
        with pytest.raises(FleetSimulationError) as info:
            run_batch_streams(program, [b"", lane], unit=unit)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "token 9 does not fit the declared 2-bit input width" in errors[0]


@needs_kernel
def test_all_empty_batch():
    program = block_frequencies_unit()
    result = _check_batch(program, [[], [], []])
    assert result.stats.lanes == 3
    # Every lane still runs its cleanup cycle.
    assert all(t.vcycles_per_token == [1] for t in result.traces)


@needs_kernel
@pytest.mark.parametrize("backend", ["cc"])
def test_backends_agree(backend):
    program = bloom_filter_unit()
    unit = compile_batch(program)
    assert unit.cc is not None
    _check_batch(program, _ragged_streams(APPS["bloom_filter"][1]),
                 unit=unit)


@needs_kernel
def test_numpy_tier_shifts_boolean_operands():
    # Comparisons as shift operands and shift amounts. This program once
    # broke the NumPy batch tier; batches now run it on the C kernel.
    from repro.testing.spec import build_unit

    def eq(value):
        return ["bin", "eq", ["input"], ["const", value, 2]]

    program = build_unit({
        "name": "boolshift", "input_width": 2, "output_width": 8,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["cat", [
            ["bin", "shr", ["const", 11, 4], eq(3)],
            ["bin", "shr", eq(1), ["const", 0, 1]],
            ["bin", "shr", eq(1), eq(2)],
        ]]]],
    })
    unit = compile_batch(program)
    assert unit.cc is not None
    _check_batch(program, [[0, 1, 2, 3], [3, 3], []], unit=unit)


@needs_kernel
def test_batch_stats_occupancy():
    program = identity_unit()
    result = run_batch_streams(program, [[1, 2, 3], [7], []])
    stats = result.stats
    # identity: 1 vcycle per token + 1 cleanup cycle per lane.
    assert stats.lane_vcycles == result.vcycles == [4, 2, 1]
    assert stats.lanes == 3 and stats.cycles == 4
    assert stats.busy_lane_cycles == 7
    assert stats.active_lanes_at(1) == 3
    assert stats.active_lanes_at(4) == 1
    assert stats.waste_fraction == pytest.approx(1 - 7 / 12)
    d = stats.as_dict()
    assert d["lanes"] == 3 and d["busy_lane_cycles"] == 7


def test_fleet_engine_typo_raises(monkeypatch):
    monkeypatch.setenv("FLEET_ENGINE", "bacth")
    with pytest.raises(FleetConfigError, match="FLEET_ENGINE"):
        env_engine()


@pytest.mark.parametrize("value", ["compiled", "compiled-certified",
                                   "batch"])
def test_fleet_engine_retired_compiled_values_raise(monkeypatch, value):
    # `auto` already selects the certified compiled unit; the guarded
    # lowering `compiled` named is gone, and batches take the kernel
    # through `run_batch_streams`, never through the environment.
    monkeypatch.setenv("FLEET_ENGINE", value)
    program = identity_unit()
    for select in (env_engine, lambda: fast_engine_for(program),
                   lambda: make_simulator(program),
                   lambda: batch_engine_for(program)):
        with pytest.raises(FleetConfigError,
                           match="choose one of auto, interp$"):
            select()
    monkeypatch.delenv("FLEET_ENGINE")
    with pytest.raises(FleetSimulationError, match="unknown engine"):
        make_simulator(program, engine="compiled")
    assert isinstance(make_simulator(program, engine="compiled-certified"),
                      CompiledSimulator)


def _bram_conflict_unit():
    b = UnitBuilder("uncert", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite conflict: never certifies
    return b.finish()


def _emit_conflict_unit():
    # Emits `input`, and also `input + 1` when `input > 3`: two emits in
    # one virtual cycle, which the interpreter rejects.
    b = UnitBuilder("two-emits", input_width=8, output_width=8)
    b.emit(b.input)
    with b.when(b.input > 3):
        b.emit(b.input + 1)
    return b.finish()


def test_incremental_fallback_of_uncertified_program_interprets():
    # No batch kernel and no compiled unit without a certificate:
    # token-at-a-time driving runs the checking interpreter, which
    # catches the conflict.
    sim = make_simulator(_bram_conflict_unit())
    with pytest.raises(FleetRestrictionError, match="written twice"):
        sim.process_token(9)


def test_refused_specialization_is_remembered(monkeypatch, fresh_artifacts):
    # An uncertified program is refused a compiled unit once per
    # structure: later automatic engine choices reuse the refusal.
    import repro.interp.compile as compile_mod
    from repro.telemetry.metrics import enabled_scope

    calls = []
    real = compile_mod.compile_program

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def refused():
        return sum(child.value for labels, child
                   in compile_mod._SPECIALIZATIONS.samples()
                   if labels == ("refused",))

    monkeypatch.setattr(compile_mod, "compile_program", counting)
    program = _emit_conflict_unit()
    with enabled_scope():
        before = refused()
        for _ in range(3):
            # The cleanup cycle emits its dummy token, 0.
            assert make_simulator(program).run([1, 2, 3]) == [1, 2, 3, 0]
            assert fast_engine_for(program) is None
        assert refused() - before == 1
    assert len(calls) == 1
    assert try_specialize(program) is None


def test_unsupported_program_falls_back():
    # A 100-element BRAM fails the power-of-two state-shape gate shared
    # with the compiled engine's totality condition.
    b = UnitBuilder("odd_bram", input_width=8, output_width=8)
    table = b.bram("table", elements=100, width=8)
    b.emit(b.input)
    table[b.input & 63] = b.input
    program = b.finish()
    ok, reason = batch_support(program)
    assert not ok and reason
    assert batch_engine_for(program) is None
    with pytest.raises(Exception):
        compile_batch(program)


@needs_kernel
def test_built_unit_skips_the_gate_walk(monkeypatch):
    # A fresh server looks every app up again: once the structure has a
    # unit, the gate's AST walk is not repeated.
    import repro.interp.batch as batch_mod

    unit = batch_engine_for(int_coding_unit())
    assert unit is not None
    walks = []
    monkeypatch.setattr(batch_mod, "batch_support",
                        lambda program: walks.append(program) or (True, ""))
    assert batch_engine_for(int_coding_unit()) is unit
    assert walks == []


def test_auto_selection_skips_compiling_uncertified_programs(monkeypatch):
    import repro.interp.batch as batch_mod

    program = _bram_conflict_unit()
    calls = []
    real = batch_mod.compile_batch

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "compile_batch", counting)
    assert batch_engine_for(program) is None
    assert calls == []


@pytest.mark.parametrize("build,error", [
    (_emit_conflict_unit, FleetEmitConflictError),
    (_bram_conflict_unit, FleetRestrictionError),
], ids=["emit-conflict", "bram-conflict"])
def test_forced_batching_refuses_uncertified_programs(build, error):
    program = build()
    with pytest.raises(FleetSimulationError):
        compile_batch(program)
    with pytest.raises(FleetSimulationError):
        run_batch_streams(program, [[1, 5, 2]])
    # Automatic selection leaves an uncertified program on the
    # interpreter, whose restriction checks fire.
    with pytest.raises(error):
        make_simulator(program).run([1, 5, 2])


def _declines():
    import repro.interp.batch as batch_mod

    return {
        labels[0]: child.value
        for labels, child in batch_mod._BATCH_FALLBACKS.samples()
    }


def _decline_reason(program):
    from repro.telemetry.metrics import enabled_scope

    with enabled_scope():
        before = _declines()
        assert batch_engine_for(program) is None
        after = _declines()
    return {
        reason: count - before.get(reason, 0)
        for reason, count in after.items()
        if count != before.get(reason, 0)
    }


def test_batch_fallback_counts_each_reason(monkeypatch, fresh_artifacts):
    # Fresh artifacts: no batch unit for identity is built before the
    # planted build failure below.
    import repro.interp.batch as batch_mod
    import repro.interp.cc as cc_mod
    from repro.apps import decision_tree_unit

    assert _decline_reason(_bram_conflict_unit()) == {"uncertified": 1}
    # decision_tree certifies but concatenates past 64 bits.
    assert _decline_reason(decision_tree_unit()) == {"unsupported": 1}
    monkeypatch.setenv("FLEET_ENGINE", "interp")
    assert _decline_reason(identity_unit()) == {"env_veto": 1}
    monkeypatch.delenv("FLEET_ENGINE")
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert _decline_reason(identity_unit()) == {"no_toolchain": 1}
    monkeypatch.delenv("FLEET_NATIVE")

    def broken(program, layout):
        raise FleetSimulationError("planted build failure")

    monkeypatch.setattr(batch_mod, "kernel_unavailable", lambda: None)
    monkeypatch.setattr(cc_mod, "compile_cc", broken)
    assert _decline_reason(identity_unit()) == {"build_failed": 1}


@needs_kernel
def test_loop_limit_message_matches_compiled():
    b = UnitBuilder("spin", input_width=8, output_width=8)
    r = b.reg("r", width=8, init=0)
    with b.while_(r < 200):
        r.set(r & 0)  # r stays 0: never terminates
    program = b.finish()
    with pytest.raises(Exception) as batch_err:
        run_batch_streams(program, [[1]], max_vcycles_per_token=50)
    with pytest.raises(Exception) as compiled_err:
        CompiledSimulator(program, compile_program(program),
                          max_vcycles_per_token=50).run([1])
    assert str(batch_err.value) == str(compiled_err.value)
