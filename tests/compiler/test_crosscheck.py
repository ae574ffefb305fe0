"""Full cross-check: compiled RTL vs the functional simulator on every
application, with and without IO stalls — the paper's peek-poke testing
infrastructure (Section 6)."""

import random

import pytest

from repro.apps import (
    block_frequencies_unit,
    bloom_filter_unit,
    decision_tree_unit,
    identity_unit,
    int_coding_unit,
    json_field_unit,
    regex_match_unit,
    smith_waterman_unit,
)
from repro.apps.json_parser import make_stream as json_stream
from repro.apps.smith_waterman import make_stream as sw_stream
from repro.bench.workloads import make_gbt_model
from repro.compiler import UnitTestbench
from repro.interp import make_simulator

RND = random.Random(0xC0C0)


def _dtree_stream():
    rnd = random.Random(77)
    model = make_gbt_model(rnd, n_features=4, n_trees=3, depth=3)
    points = [[rnd.randrange(1 << 20) for _ in range(4)] for _ in range(6)]
    from repro.apps.decision_tree import encode_points

    return list(model.encode_header() + encode_points(points))


CASES = [
    ("identity", identity_unit, lambda: [RND.randrange(256)
                                         for _ in range(150)]),
    ("histogram", lambda: block_frequencies_unit(block_size=7),
     lambda: [RND.randrange(256) for _ in range(60)]),
    ("json", json_field_unit,
     lambda: json_stream(["a.b", "k"],
                         b'{"a":{"b":1},"k":"x"}\n{"k":[1,2],"a":{"b":"y"}}')),
    ("int_coding", int_coding_unit,
     lambda: [RND.randrange(256) for _ in range(96)]),
    ("decision_tree",
     lambda: decision_tree_unit(max_features=8, max_trees=4, max_nodes=64),
     _dtree_stream),
    ("smith_waterman", lambda: smith_waterman_unit(target_length=4),
     lambda: sw_stream(b"ACGT", 6,
                       [RND.choice(b"ACGT") for _ in range(120)])),
    ("regex", lambda: regex_match_unit("a(b|c)+d"),
     lambda: [RND.choice(b"abcdx") for _ in range(150)]),
    ("bloom",
     lambda: bloom_filter_unit(block_size=4, num_hashes=2, section_bits=128),
     lambda: [RND.randrange(256) for _ in range(64)]),
]


@pytest.mark.parametrize("name,unit_fn,stream_fn",
                         CASES, ids=[c[0] for c in CASES])
def test_rtl_matches_functional_simulator(name, unit_fn, stream_fn):
    unit = unit_fn()
    tokens = stream_fn()
    expected = make_simulator(unit).run(tokens)
    outputs, _cycles = UnitTestbench(unit).run(tokens)
    assert outputs == expected


@pytest.mark.parametrize("name,unit_fn,stream_fn",
                         CASES, ids=[c[0] for c in CASES])
def test_rtl_matches_under_io_stalls(name, unit_fn, stream_fn):
    unit = unit_fn()
    tokens = stream_fn()
    expected = make_simulator(unit).run(tokens)
    stall_rnd = random.Random(name)
    outputs, _ = UnitTestbench(unit).run(
        tokens,
        input_stall=lambda c: stall_rnd.random() < 0.3,
        output_stall=lambda c: stall_rnd.random() < 0.3,
    )
    assert outputs == expected


def test_stalls_only_add_latency_never_reorder():
    unit = block_frequencies_unit(block_size=5)
    tokens = [RND.randrange(256) for _ in range(40)]
    tb = UnitTestbench(unit)
    baseline, base_cycles = tb.run(tokens)
    stalled, stalled_cycles = tb.run(
        tokens, input_stall=lambda c: c % 2 == 0
    )
    assert stalled == baseline
    assert stalled_cycles > base_cycles
