"""The shrinker: minimal repros from an injected, documented compiler bug.

The injected bug: the certified compiled engine prints subtraction as
``((lhs - rhs) & mask)`` — the only
``" - "`` in its generated source — so rewriting ``" - "`` to ``" + "``
via the ``source_transform`` hook miscompiles every subtraction. The
fuzzer must catch the disagreement and the shrinker must reduce it to a
handful of statements.
"""

import pytest

from repro.testing import spec as spec_mod
from repro.testing.engine import ConformanceEngine
from repro.testing.shrinker import Shrinker, shrink

def _sub_to_add(src):
    return src.replace(" - ", " + ")


def test_injected_bug_caught_and_shrunk_to_tiny_repro():
    engine = ConformanceEngine(
        seed="shrink-test", max_programs=60, max_failures=1,
        source_transform=_sub_to_add,
    )
    report = engine.run()
    assert report.failures, "fuzzer missed the injected miscompile"
    failure = report.failures[0]
    assert failure.stage == "compiled-certified"
    # Acceptance bound from the issue: a minimal statement-level repro.
    assert spec_mod.count_statements(failure.shrunk_spec) <= 6
    # The minimal repro must still contain a subtraction — the only
    # operator the injected bug touches.
    assert any(
        e[0] == "bin" and e[1] == "sub"
        for s in spec_mod.walk_statements(failure.shrunk_spec["body"])
        for root in spec_mod.statement_exprs(s)
        for e in spec_mod.walk_exprs(root)
    )


def test_shrunk_repro_still_fails_and_is_smaller():
    spec = {
        "name": "bulk", "input_width": 8, "output_width": 8,
        "regs": [["a", 8, 5], ["dead", 4, 0]], "vregs": [],
        "brams": [["m", 4, 8]],
        "body": [
            ["bw", "m", ["const", 1, 2], ["input"]],
            ["set", "a", ["bin", "add", ["reg", "a"], ["const", 1, 1]]],
            ["emit", ["bin", "sub", ["reg", "a"], ["input"]]],
        ],
    }
    streams = [[1, 2, 3, 4], [9, 9]]
    small, small_streams, stage, attempts = shrink(
        spec, streams, rtl=False, verilog=False,
        source_transform=_sub_to_add,
    )
    assert stage == "compiled-certified"
    assert attempts > 0
    assert spec_mod.count_statements(small) < spec_mod.count_statements(spec)
    assert sum(map(len, small_streams)) <= sum(map(len, streams))
    # Unused declarations are stripped once nothing references them.
    assert all(d[0] in spec_mod.used_names(small)
               for d in small["regs"] + small["brams"])
    # The reduced pair must reproduce the same-stage failure on its own.
    shrinker = Shrinker(small, small_streams, rtl=False, verilog=False,
                        source_transform=_sub_to_add)
    assert shrinker.stage == "compiled-certified"


def test_shrinker_refuses_passing_input():
    spec = {
        "name": "fine", "input_width": 8, "output_width": 8,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["input"]]],
    }
    with pytest.raises(ValueError):
        Shrinker(spec, [[1, 2]], rtl=False, verilog=False)


def test_invalid_reductions_are_discarded():
    """A reduction that makes the program ill-formed (e.g. deleting the
    loop counter increment, making the while diverge) must be rejected,
    not adopted or crashed on."""
    spec = {
        "name": "loopy", "input_width": 4, "output_width": 8,
        "regs": [["lc", 3, 0]], "vregs": [], "brams": [],
        "body": [
            ["while", ["bin", "lt", ["reg", "lc"], ["const", 3, 2]], [
                ["set", "lc",
                 ["bin", "add", ["reg", "lc"], ["const", 1, 1]]],
            ]],
            ["set", "lc", ["const", 0, 1]],
            ["emit", ["bin", "sub", ["const", 9, 4], ["input"]]],
        ],
    }
    small, small_streams, stage, _ = shrink(
        spec, [[1, 2, 3]], rtl=False, verilog=False,
        source_transform=_sub_to_add,
    )
    assert stage == "compiled-certified"
    # The emit carrying the subtraction must survive.
    assert any(s[0] == "emit"
               for s in spec_mod.walk_statements(small["body"]))
