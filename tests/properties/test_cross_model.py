"""Property tests across the three executable models (functional
simulator, compiled RTL, ISA baselines) and the memory system."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import identity_unit, regex_match_unit, regex_reference
from repro.baselines.apps.regex_isa import regex_program
from repro.interp import make_simulator
from repro.isa import ScalarExecutor, SimtExecutor
from repro.memory import EchoPu, ChannelSystem, MemoryConfig
from repro.system import run_full_system

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_REGEX_PROGRAM = regex_program("a(b|c)+d")
_REGEX_UNIT = regex_match_unit("a(b|c)+d")


@slow
@given(st.lists(
    st.lists(st.sampled_from(list(b"abcdx")), max_size=30),
    min_size=1, max_size=8,
))
def test_simt_lanes_equal_scalar_runs(streams):
    warp = SimtExecutor(_REGEX_PROGRAM).run(streams)
    for stream, lane_output in zip(streams, warp.outputs):
        scalar = ScalarExecutor(_REGEX_PROGRAM).run(stream)
        assert lane_output == scalar.outputs


@slow
@given(st.lists(st.sampled_from(list(b"abcdx")), max_size=40))
def test_unit_equals_isa_equals_golden(stream):
    golden = regex_reference(stream, "a(b|c)+d")
    assert make_simulator(_REGEX_UNIT).run(stream) == golden
    assert ScalarExecutor(_REGEX_PROGRAM).run(stream).outputs == golden


@slow
@given(
    st.lists(st.binary(min_size=1, max_size=400), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_memory_system_conserves_bytes(streams, seed):
    """Every byte of every stream is delivered exactly once, in order,
    and echoed back intact — under a randomly perturbed configuration."""
    rnd = random.Random(seed)
    config = MemoryConfig().replace(
        burst_registers=rnd.choice((1, 2, 16)),
        async_addressing=rnd.random() < 0.8,
        dram_latency=rnd.choice((5, 30, 90)),
        beats_per_burst=rnd.choice((1, 2, 4)),
    )
    data = bytearray()
    bases, out_bases = [], []
    for stream in streams:
        bases.append(len(data))
        data += stream
    for stream in streams:
        out_bases.append(len(data))
        data += b"\0" * (len(stream) + 64)
    pus = [EchoPu(len(stream)) for stream in streams]
    system = ChannelSystem(config, pus, data=data, stream_bases=bases,
                           out_bases=out_bases)
    system.run(max_cycles=300_000)
    assert system.drained()
    for stream, pu, base in zip(streams, pus, out_bases):
        assert bytes(pu.received) == stream
        assert bytes(data[base:base + len(stream)]) == stream


@slow
@given(st.lists(st.binary(min_size=1, max_size=200), min_size=1,
                max_size=3))
def test_full_system_equals_direct_simulation(streams):
    result = run_full_system(identity_unit(), streams)
    for stream, region in zip(streams, result.output_bytes):
        assert region == stream
