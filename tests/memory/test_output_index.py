"""The output controller's due-cycle index against the polling scan it
replaced (``tests/memory/reference.py``).

Every seeded scenario runs four times: the index and the reference, each
stepped (``reference.stepping``) and jumping idle stretches. All four
must submit the same writes on the same cycles, leave the same
round-robin pointer after every cycle (a jumping run where it lands
after a step or a jump), and end with the same state, DRAM contents and
stats, attribution included when the run is observed. Every idle-window
check the index makes must also agree with the polling check on the same
state.
"""

import itertools
import random
from math import inf

import pytest

from repro.apps import identity_unit
from repro.lang import UnitBuilder
from repro.memory import (
    ChannelSystem,
    EchoPu,
    FunctionalPu,
    MemoryConfig,
    RatePu,
    SinkPu,
)
from repro.obs import Observation

from .reference import (
    PollingChannelSystem,
    PollingOutputController,
    stepping,
)
from .test_event_driven import engine, snapshot

COUNTS = (0, 1, 7, 8, 9, 130)
REGISTERS = (1, 2, 16)
BEATS = (1, 2, 8)
KINDS = ("sink", "echo", "rate", "functional")


def _odd_count_unit():
    """Emits the odd input bytes, then a 16-bit count of them at end of
    stream: a fractional output rate plus output on a zero-byte stream."""
    b = UnitBuilder("odd_count", input_width=8, output_width=16)
    count = b.reg("count", width=16)
    with b.when(b.stream_finished):
        b.emit(count)
    with b.otherwise():
        with b.when(b.input.bits(0, 0)):
            b.emit(b.input)
            count.set(count + 1)
    return b.finish()


UNITS = (identity_unit(), _odd_count_unit())


def _scenario(index, count, registers, beats):
    rnd = random.Random(index)
    config = MemoryConfig().replace(
        burst_registers=registers,
        beats_per_burst=beats,
        async_addressing=rnd.random() < 0.6,
        output_blocking=rnd.random() < 0.5,
        input_blocking=rnd.random() < 0.5,
    )
    kinds = rnd.choice([KINDS, KINDS] + [(kind,) for kind in KINDS])
    sizes = (0, 1, 37, 64, 128, 200, 300) if count > 9 else (
        0, 1, 37, 64, 100, 128, 300, 512, 1000, 2048)
    specs = []
    for _ in range(count):
        kind = rnd.choice(kinds)
        size = rnd.choice(sizes)
        if kind == "rate":
            specs.append((kind, size, dict(
                vcycles_per_token=rnd.choice((0.5, 1, 1.125, 3, 9)),
                output_ratio=rnd.choice((0.0, 0.05, 0.125, 0.33, 1.0, 1.7)),
            )))
        elif kind == "functional":
            specs.append((kind, size, rnd.choice(UNITS)))
        else:
            specs.append((kind, size, None))
    data = bytearray()
    bases = []
    for _, size, _ in specs:
        bases.append(len(data))
        data += bytes(rnd.getrandbits(8) for _ in range(size))
    out_bases = []
    for _, size, _ in specs:
        data += bytes(-len(data) % 64)
        out_bases.append(len(data))
        data += bytes(2 * size + 256)
    # A channel without PUs drains at once; only a fixed run steps it.
    fixed = 2_000 if count == 0 and index % 2 else rnd.choice(
        (None, None, 2_000))
    observed = rnd.random() < 0.4
    return config, specs, data, bases, out_bases, fixed, observed


SCENARIOS = [
    _scenario(index, *axes)
    for index, axes in enumerate(itertools.product(COUNTS, REGISTERS, BEATS))
]


def _make_pu(kind, size, arg):
    if kind == "sink":
        return SinkPu(size)
    if kind == "echo":
        return EchoPu(size)
    if kind == "rate":
        return RatePu(size, **arg)
    return FunctionalPu(arg, size)


def _run(cls, scenario):
    config, specs, data, bases, out_bases, fixed, observed = scenario
    data = bytearray(data)
    system = cls(
        config, [_make_pu(*spec) for spec in specs], data=data,
        stream_bases=bases, out_bases=out_bases,
        obs=Observation() if observed else None,
    )
    dram, oc = system.dram, system.output_controller
    writes, rr = [], {}
    submit_write, step, jump, idle = (
        dram.submit_write, system._step_acted, system._fast_forward,
        oc.idle_jump_info,
    )

    def recorded_write(addr, beats, tag=None):
        writes.append((system.cycle, addr, tag))
        submit_write(addr, beats, tag=tag)

    def recorded_step():
        acted = step()
        rr[system.cycle - 1] = oc._rr
        assert oc._soonest <= min(oc._due.values(), default=inf)
        return acted

    def checked_idle(now):
        # A needlessly refused jump costs time, not results: compare it.
        got = idle(now)
        assert got == PollingOutputController.idle_jump_info(oc, now)
        return got

    def recorded_jump(horizon):
        skipped = jump(horizon)
        if skipped:
            rr[system.cycle - 1] = oc._rr
        return skipped

    dram.submit_write = recorded_write
    system._step_acted = recorded_step
    system._fast_forward = recorded_jump
    oc.idle_jump_info = checked_idle
    if fixed is None:
        stats = system.run(max_cycles=400_000)
        assert system.drained()
    else:
        stats = system.run_for(fixed)
    outcome = dict(
        writes=writes,
        snapshot=snapshot(system),
        stats=(stats.cycles, stats.bytes_in, stats.bytes_out,
               stats.attribution),
        data=bytes(data),
    )
    return outcome, rr


def test_scenarios_cover_every_axis():
    configs = [scenario[0] for scenario in SCENARIOS]
    for field in ("async_addressing", "output_blocking", "input_blocking"):
        assert {getattr(c, field) for c in configs} == {False, True}
    kinds = {kind for scenario in SCENARIOS for kind, _, _ in scenario[1]}
    assert kinds == set(KINDS)
    # A zero-byte stream whose unit emits at end of stream.
    assert any(kind == "functional" and size == 0 and arg is UNITS[1]
               for scenario in SCENARIOS for kind, size, arg in scenario[1])
    assert {scenario[5] for scenario in SCENARIOS} == {None, 2_000}
    assert {scenario[6] for scenario in SCENARIOS} == {False, True}


@pytest.mark.parametrize(
    "index", range(len(SCENARIOS)),
    ids=[f"{n}pu-r{r}-b{b}" for n, r, b in
         itertools.product(COUNTS, REGISTERS, BEATS)],
)
def test_index_matches_polling_scan(index):
    scenario = SCENARIOS[index]
    with stepping():
        want, want_rr = _run(PollingChannelSystem, scenario)
    for cls, jumps in ((ChannelSystem, False), (ChannelSystem, True),
                       (PollingChannelSystem, True)):
        with engine(jumps):
            got, rr = _run(cls, scenario)
        assert got == want, (cls.__name__, jumps)
        if jumps:
            assert rr == {cycle: want_rr[cycle] for cycle in rr}
        else:
            assert rr == want_rr
