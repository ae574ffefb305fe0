"""What crosses the batch kernel's boundary.

A batch enters the kernel as one packed token buffer and comes back as
outputs and per-lane virtual-cycle totals. Per-token traces and final
lane state come back only for ``run_batch_streams(..., traces=True)``;
with or without it, outputs and totals are the same, and they equal
the per-stream engines'. Reading what a run did not keep raises.
"""

import random

import pytest

from repro.apps import block_frequencies_unit, identity_unit
from repro.interp import (
    CompiledSimulator,
    batch_engine_for,
    batch_support,
    compile_batch,
    compile_program,
    make_simulator,
    run_batch_streams,
)
from repro.lang import UnitBuilder
from repro.lang.errors import FleetLoopLimitError, FleetSimulationError
from repro.testing.spec import build_unit

from .test_codegen_goldens import APP_UNITS

pytestmark = pytest.mark.needs_kernel


class _Counting:
    """A kernel library that records each ``fleet_run`` call's
    arguments in ``calls``."""

    def __init__(self, lib, calls):
        self._lib = lib
        self._calls = calls

    def fleet_run(self, *args):
        self._calls.append(args)
        return self._lib.fleet_run(*args)


def _both_modes(program, lanes, unit=None):
    """Run ``lanes`` without and with traces; check outputs and totals
    agree, and return the traced result."""
    unit = unit or batch_engine_for(program)
    plain = run_batch_streams(program, lanes, unit=unit)
    traced = run_batch_streams(program, lanes, unit=unit, traces=True)
    assert plain.outputs == traced.outputs
    assert plain.vcycles == traced.vcycles
    assert plain.stats.as_dict() == traced.stats.as_dict()
    for lane, trace in enumerate(traced.traces):
        assert traced.vcycles[lane] == trace.total_vcycles, lane
    return traced


def _per_stream(program, stream):
    sim = make_simulator(program)
    outputs = sim.run(list(stream))
    return outputs, sim.trace.total_vcycles


def _check(program, lanes, unit=None):
    result = _both_modes(program, lanes, unit)
    for lane, stream in enumerate(lanes):
        assert (result.outputs[lane], result.vcycles[lane]) \
            == _per_stream(program, stream), lane
    return result


def _served_kernel_apps():
    from repro.serve import catalog_apps
    from repro.serve.server import default_apps

    apps = {**default_apps(), **catalog_apps()}
    return {name: app for name, app in apps.items()
            if name != "decision_tree"}  # 112-bit state: no kernel


@pytest.mark.parametrize("name", sorted(_served_kernel_apps()))
def test_served_apps_agree_with_and_without_traces(name):
    app = _served_kernel_apps()[name]
    program = app.unit_factory()
    rng = random.Random(name)
    lanes = [app.header + bytes(rng.randrange(256)
                                for _ in range(rng.randrange(120)))
             for _ in range(6)]
    lanes[2] = b""
    _check(program, lanes)


@pytest.mark.parametrize(
    "name,factory",
    [(name, factory) for name, factory in APP_UNITS
     if batch_support(factory())[0]],
    ids=[name for name, factory in APP_UNITS
         if batch_support(factory())[0]],
)
def test_golden_units_agree_with_and_without_traces(name, factory):
    program = factory()
    rng = random.Random(name)
    top = min(256, 1 << program.input_width)
    lanes = [[rng.randrange(top) for _ in range(rng.randrange(80))]
             for _ in range(5)]
    lanes[1] = []
    _check(program, lanes)


def test_all_empty_batch():
    program = block_frequencies_unit()
    result = _check(program, [b"", b"", b""])
    assert result.outputs == [[], [], []]
    # Every lane still runs its cleanup cycle.
    assert [t.vcycles_per_token for t in result.traces] == [[1]] * 3


def test_empty_lane_between_non_empty_lanes():
    # An empty lane takes no room in the packed buffer: the lane after
    # it starts where the one before it ended.
    program = identity_unit()
    result = _check(program, [b"abc", b"", b"de"])
    assert result.outputs == [list(b"abc"), [], list(b"de")]
    assert result.vcycles == [4, 1, 3]
    assert [t.vcycles_per_token for t in result.traces] \
        == [[1, 1, 1, 1], [1], [1, 1, 1]]


def test_single_lane():
    program = block_frequencies_unit()
    result = _check(program, [bytes(range(200))])
    assert result.stats.lanes == 1


def test_every_lane_starts_from_the_init_images():
    # The BRAM and the vector register (init 5) keep what a stream left
    # in them, so a lane that started from the previous lane's state,
    # or from an unset slot, would emit different values.
    addr = ["slice", 1, 0, ["input"]]
    program = build_unit({
        "name": "carry", "input_width": 8, "output_width": 16,
        "regs": [], "vregs": [["v", 4, 8, 5]], "brams": [["m", 4, 8]],
        "body": [
            ["bw", "m", addr, ["slice", 7, 0, [
                "bin", "add", ["bram", "m", addr], ["const", 1, 8]]]],
            ["vset", "v", addr, ["slice", 7, 0, [
                "bin", "add", ["vreg", "v", addr], ["const", 1, 8]]]],
            ["emit", ["bin", "add", ["bram", "m", addr],
                      ["vreg", "v", addr]]],
        ],
    })
    result = _check(program, [[1, 1, 1, 2], [1, 2], [], [3, 1]])
    assert result.outputs[1] == [5, 5, 5]
    # The cleanup cycle runs with token 0, so m[0] counts it too.
    assert result.peek_bram(0, "m") == [1, 3, 1, 0]
    assert result.peek_bram(1, "m") == [1, 1, 1, 0]


def test_int_list_lanes_on_an_eight_bit_unit():
    program = block_frequencies_unit()
    lanes = [[1, 2, 3, 255], [], [True, 7]]
    via_lists = _check(program, lanes)
    via_bytes = run_batch_streams(program, [bytes(lane) for lane in lanes],
                                  traces=True)
    assert via_lists.outputs == via_bytes.outputs
    assert via_lists.vcycles == via_bytes.vcycles
    for lane in range(len(lanes)):
        assert via_lists.reg_state(lane) == via_bytes.reg_state(lane)


def _two_bit():
    return build_unit({
        "name": "two_bit", "input_width": 2, "output_width": 2,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["input"]]],
    })


def test_sub_byte_unit_raises_on_the_first_bad_token_in_lane_order():
    program = _two_bit()
    unit = compile_batch(program)
    # Lane 2 holds the first bad token in lane order (9); lane 3's 7
    # comes later.
    lanes = [b"\x01\x02", [3, 0], b"\x01\x09\x02", [7]]
    with pytest.raises(FleetSimulationError) as info:
        run_batch_streams(program, lanes, unit=unit)
    assert str(info.value) == (
        "token 9 does not fit the declared 2-bit input width"
    )
    with pytest.raises(FleetSimulationError) as per_stream:
        make_simulator(program).run(list(lanes[2]))
    assert str(per_stream.value) == str(info.value)
    _check(program, lanes[:2], unit)


def test_wider_than_eight_bit_unit():
    b = UnitBuilder("wide", input_width=16, output_width=16)
    acc = b.reg("acc", width=16, init=3)
    acc.set(acc + b.input)
    b.emit(acc ^ b.input)
    program = b.finish()
    assert program.input_width > 8
    rng = random.Random(16)
    lanes = [[rng.randrange(1 << 16) for _ in range(40)], [],
             b"\x01\xff", [65535, 0, 1]]
    result = _check(program, lanes)
    assert result.peek_reg(3, "acc") == (3 + 65535 + 0 + 1) & 0xFFFF
    with pytest.raises(FleetSimulationError, match="16-bit input width"):
        run_batch_streams(program, [[1], [1 << 16]])


def test_output_capacity_retry():
    # Each token t emits 0..t-1: 25,500 outputs from 100 tokens overflow
    # the first output buffer (4 per token), and the kernel reports it
    # (err[0] == 2) until the output buffer is large enough.
    program = build_unit({
        "name": "burst", "input_width": 8, "output_width": 8,
        "regs": [["i", 8, 0]], "vregs": [], "brams": [],
        "body": [
            ["while", ["bin", "lt", ["reg", "i"], ["input"]], [
                ["emit", ["reg", "i"]],
                ["set", "i", ["bin", "add", ["reg", "i"],
                              ["const", 1, 8]]],
            ]],
            ["set", "i", ["const", 0, 8]],
        ],
    })
    unit = compile_batch(program)
    calls = []
    unit.cc.lib = _Counting(unit.cc.lib, calls)
    lanes = [bytes([255] * 100), b"", bytes([3, 2])]
    result = _check(program, lanes, unit)
    assert [len(out) for out in result.outputs] == [25_500, 0, 5]
    assert result.outputs[2] == [0, 1, 2, 0, 1]
    # Two retries per mode: capacities 4,096, 16,384 and 65,536.
    assert len(calls) == 6


def test_loop_limit_error_names_the_lane_and_the_token():
    b = UnitBuilder("spin_on_five", input_width=8, output_width=8)
    r = b.reg("r", width=8, init=0)
    with b.while_((b.input == 5) & (r < 200)):
        r.set(r & 0)  # r stays 0: never terminates on token 5
    b.emit(b.input)
    program = b.finish()
    for traces in (False, True):
        with pytest.raises(FleetLoopLimitError) as info:
            run_batch_streams(program, [[1, 2], [], [3, 5, 1]],
                              max_vcycles_per_token=50, traces=traces)
        assert (info.value.lane, info.value.token) == (2, 1)
    with pytest.raises(FleetLoopLimitError) as compiled:
        CompiledSimulator(program, compile_program(program),
                          max_vcycles_per_token=50).run([3, 5, 1])
    assert str(info.value) == str(compiled.value)


@pytest.mark.parametrize("read", [
    lambda result: result.traces,
    lambda result: result.peek_reg(0, "item_counter"),
    lambda result: result.peek_bram(0, "frequencies"),
    lambda result: result.reg_state(0),
], ids=["traces", "peek_reg", "peek_bram", "reg_state"])
def test_reading_what_was_not_kept_raises(monkeypatch, read):
    program = block_frequencies_unit()
    unit = batch_engine_for(program)
    result = run_batch_streams(program, [b"abc"], unit=unit)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(unit.cc, "lib", _Counting(unit.cc.lib, calls))
        with pytest.raises(FleetSimulationError, match=r"traces=True"):
            read(result)
    assert calls == []  # never reruns the batch
    traced = run_batch_streams(program, [b"abc"], unit=unit, traces=True)
    read(traced)
