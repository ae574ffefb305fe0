"""Identity and sink units."""

from repro.apps import identity_reference, identity_unit, sink_unit
from repro.interp import make_simulator


def test_identity_echoes_stream(rnd):
    tokens = [rnd.randrange(256) for _ in range(100)]
    unit = identity_unit()
    assert make_simulator(unit).run(tokens) == identity_reference(tokens)


def test_identity_emits_nothing_for_empty_stream():
    assert make_simulator(identity_unit()).run([]) == []


def test_identity_wide_tokens(rnd):
    unit = identity_unit(token_width=16)
    tokens = [rnd.randrange(1 << 16) for _ in range(20)]
    assert make_simulator(unit).run(tokens) == tokens


def test_sink_consumes_everything_silently(rnd):
    unit = sink_unit()
    sim = make_simulator(unit)
    assert sim.run([rnd.randrange(256) for _ in range(64)]) == []
    assert sim.peek_reg("consumed") == 65  # includes the cleanup cycle


def test_identity_one_cycle_per_token(rnd):
    sim = make_simulator(identity_unit())
    sim.run([1] * 37)
    assert sim.trace.total_vcycles == 38
