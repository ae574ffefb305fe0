"""The paper's Figure 3 running example."""

from repro.apps import block_frequencies_reference, block_frequencies_unit
from repro.interp import make_simulator


def test_single_block_counts(rnd):
    unit = block_frequencies_unit(block_size=10)
    tokens = [rnd.randrange(256) for _ in range(10)]
    out = make_simulator(unit).run(tokens)
    assert len(out) == 256
    for value in range(256):
        assert out[value] == tokens.count(value)


def test_block_boundaries_reset_counts(rnd):
    unit = block_frequencies_unit(block_size=4)
    tokens = [1, 1, 2, 3, 7, 7, 7, 7]
    out = make_simulator(unit).run(tokens)
    first, second = out[:256], out[256:]
    assert first[1] == 2 and first[2] == 1 and first[3] == 1
    assert second[7] == 4 and second[1] == 0


def test_partial_final_block_not_emitted():
    unit = block_frequencies_unit(block_size=4)
    out = make_simulator(unit).run([1, 2, 3])  # under one block
    assert out == []


def test_exact_multiple_flushes_final_block():
    unit = block_frequencies_unit(block_size=4)
    out = make_simulator(unit).run([5, 5, 5, 5])
    assert len(out) == 256
    assert out[5] == 4


def test_counts_wrap_at_width():
    unit = block_frequencies_unit(block_size=300, count_width=8)
    tokens = [9] * 300
    out = make_simulator(unit).run(tokens)
    assert out[9] == 300 % 256


def test_reference_matches_unit(rnd):
    unit = block_frequencies_unit(block_size=9)
    tokens = [rnd.randrange(256) for _ in range(95)]
    assert make_simulator(unit).run(tokens) == block_frequencies_reference(
        tokens, 9
    )


def test_vcycle_cost_structure(rnd):
    # Per completed block: 256 flush vcycles + one per token.
    unit = block_frequencies_unit(block_size=10)
    sim = make_simulator(unit)
    sim.run([rnd.randrange(256) for _ in range(30)])
    assert sim.trace.total_vcycles == 30 + 3 * 256 + 1
