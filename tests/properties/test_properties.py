"""Property-based tests (hypothesis) on the core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    block_frequencies_reference,
    block_frequencies_unit,
    bloom_contains,
    bloom_filter_unit,
    identity_unit,
    int_coding_decode,
    int_coding_reference,
    regex_reference,
)
from repro.compiler import UnitTestbench
from repro.interp import bytes_from_tokens, make_simulator, tokens_from_bytes
from repro.lang.types import mask, truncate
from repro.ops import BINOPS, eval_binop

slow = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Arithmetic laws
# ---------------------------------------------------------------------------


@given(
    st.sampled_from(sorted(BINOPS)),
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_binop_results_fit_inferred_width(op, wl, wr, a, b):
    if op == "shl" and wr > 6:
        wr = 6  # wider dynamic shifts exceed MAX_WIDTH by design
    a, b = a & mask(wl), b & mask(wr)
    result = eval_binop(op, a, b, wl, wr)
    width = BINOPS[op][0](wl, wr)
    assert 0 <= result <= mask(width)


@given(st.integers(), st.integers(min_value=1, max_value=64))
def test_truncate_idempotent(value, width):
    once = truncate(value, width)
    assert truncate(once, width) == once
    assert 0 <= once <= mask(width)


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_add_sub_inverse_mod_width(a, b):
    total = eval_binop("add", a, b, 32, 32)
    back = truncate(eval_binop("sub", total, b, 33, 32), 32)
    assert back == a


# ---------------------------------------------------------------------------
# Token packing round trips
# ---------------------------------------------------------------------------


@given(st.binary(max_size=64), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_token_packing_round_trip(data, width):
    if (len(data) * 8) % width:
        data = data[: len(data) - len(data) % max(1, width // 8)]
        if (len(data) * 8) % width:
            return
    tokens = tokens_from_bytes(data, width)
    assert bytes_from_tokens(tokens, width) == data


# ---------------------------------------------------------------------------
# Interpreter vs compiled RTL on randomized streams
# ---------------------------------------------------------------------------


@slow
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=60))
def test_identity_rtl_equivalence(tokens):
    unit = identity_unit()
    expected = make_simulator(unit).run(tokens)
    outputs, _ = UnitTestbench(unit).run(tokens)
    assert outputs == expected == tokens


@slow
@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1,
             max_size=40),
    st.integers(min_value=2, max_value=9),
)
def test_histogram_interp_matches_reference(tokens, block):
    unit = block_frequencies_unit(block_size=block)
    assert make_simulator(unit).run(tokens) == (
        block_frequencies_reference(tokens, block)
    )


# ---------------------------------------------------------------------------
# Codec and filter laws
# ---------------------------------------------------------------------------


@slow
@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=4, max_size=16))
def test_int_coding_round_trip(ints):
    ints = ints[: len(ints) - len(ints) % 4]
    if not ints:
        return
    data = [b for x in ints for b in x.to_bytes(4, "little")]
    encoded = int_coding_reference(data)
    assert int_coding_decode(encoded, len(ints) // 4) == ints


@slow
@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=4, max_size=4))
def test_bloom_no_false_negatives(items):
    data = [b for x in items for b in x.to_bytes(4, "little")]
    unit = bloom_filter_unit(block_size=4, num_hashes=3, section_bits=128)
    out = make_simulator(unit).run(data)
    for item in items:
        assert bloom_contains(out, item, 3, 128)


# ---------------------------------------------------------------------------
# Regex against the re oracle
# ---------------------------------------------------------------------------


@slow
@given(st.text(alphabet="abcx", max_size=40))
def test_regex_reference_against_re(text):
    import re

    pattern = "a(b|c)+"
    hits = regex_reference(list(text.encode()), pattern)
    oracle = [
        j
        for j in range(len(text))
        if any(re.fullmatch(pattern, text[i:j + 1])
               for i in range(j + 1))
    ]
    assert hits == oracle
