"""Stream trace accounting (the performance simulator's input)."""

from repro.interp import StreamTrace, make_simulator
from repro.apps import block_frequencies_unit, identity_unit


def test_empty_trace():
    trace = StreamTrace()
    assert trace.tokens_in == 0
    assert trace.mean_vcycles_per_token == 0.0


def test_cleanup_token_excluded_from_tokens_in():
    sim = make_simulator(identity_unit())
    sim.run([1, 2, 3])
    assert sim.trace.tokens_in == 3
    assert len(sim.trace.vcycles_per_token) == 4  # + cleanup

    # mean divides by real tokens only
    assert sim.trace.mean_vcycles_per_token == 4 / 3


def test_emits_tracked_per_token():
    sim = make_simulator(block_frequencies_unit(block_size=2))
    sim.run([1, 2, 3, 4])
    # blocks complete on tokens 3 and during cleanup
    assert sim.trace.tokens_out == 512
    flush_tokens = [e for e in sim.trace.emits_per_token if e]
    assert flush_tokens == [256, 256]


def test_total_vcycles_consistent():
    sim = make_simulator(block_frequencies_unit(block_size=2))
    sim.run([1, 2, 3, 4])
    assert sim.trace.total_vcycles == sum(sim.trace.vcycles_per_token)


def test_cleanup_and_payload_vcycles_split_the_total():
    sim = make_simulator(identity_unit())
    sim.run([1, 2, 3])
    trace = sim.trace
    assert trace.cleanup_vcycles == trace.vcycles_per_token[-1]
    assert trace.payload_vcycles == trace.total_vcycles - \
        trace.cleanup_vcycles
    assert trace.payload_vcycles == sum(trace.vcycles_per_token[:-1])

    # Before any cleanup has run, the split is trivial.
    fresh = StreamTrace()
    fresh.record_token(2, 0, stream_finished=False)
    assert fresh.cleanup_vcycles == 0
    assert fresh.payload_vcycles == 2


def test_empty_stream_mean_is_zero_not_an_error():
    sim = make_simulator(identity_unit())
    sim.run([])
    trace = sim.trace
    assert trace.tokens_in == 0
    # The cleanup cycle still ran and stays visible...
    assert trace.cleanup_vcycles >= 1
    assert trace.payload_vcycles == 0
    # ...but the per-token mean is defined as 0.0, never a division
    # error (header-only streams reach this path via profile_unit).
    assert trace.mean_vcycles_per_token == 0.0


def test_profile_unit_on_empty_stream():
    from repro.system import profile_unit

    profile = profile_unit(identity_unit(), b"")
    assert profile.vcycles_per_token == 0.0
    assert profile.output_ratio == 0.0
    assert profile.tokens_in == 0
