"""Golden snapshots of the certified-specialized codegen.

One specialized-Python golden (``<app>.py.txt``) and — where the batch
engine's machine-word gate admits the app — one golden of its native C
tier (``<app>.c.txt``) per application unit under
``tests/interp/goldens/codegen/``. Any change to the specialization
pipeline (mask elision, const folding, dead-arm pruning, phase
splitting, the C surface) shows up as a reviewable source diff::

    PYTHONPATH=src python -m pytest tests/interp/test_codegen_goldens.py \
        --update-goldens

Both goldens print the one certified lowering of each unit
(``CompiledUnit.lowered``). Printing is pure Python: the C goldens
render over the program's :class:`~repro.interp.cc.StateLayout` and
need neither a toolchain nor NumPy.
"""

import os

import pytest

from repro.apps import (
    block_frequencies_unit,
    bloom_filter_unit,
    csv_extract_unit,
    decision_tree_unit,
    identity_unit,
    int_coding_unit,
    json_field_unit,
    regex_match_unit,
    sink_unit,
    smith_waterman_unit,
    string_search_unit,
)
from repro.interp import batch_support, compile_program
from repro.interp.cc import StateLayout, print_c
from repro.lint import certificate_for

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens", "codegen")

# Reduced parameters: deterministic, and small enough that a golden diff
# is reviewable by eye (mirrors tests/rtl/test_goldens.py).
APP_UNITS = [
    ("identity", identity_unit),
    ("sink", sink_unit),
    ("block_frequencies", block_frequencies_unit),
    ("csv_extract", csv_extract_unit),
    ("int_coding", int_coding_unit),
    ("bloom_filter", lambda: bloom_filter_unit(
        block_size=16, num_hashes=4, section_bits=256)),
    ("decision_tree", lambda: decision_tree_unit(
        max_features=8, max_trees=4, max_nodes=64)),
    ("json_field", lambda: json_field_unit(max_states=8, max_depth=8)),
    ("regex_match", lambda: regex_match_unit("a(b|c)+d")),
    ("smith_waterman", lambda: smith_waterman_unit(target_length=4)),
    ("string_search", lambda: string_search_unit(max_states=16)),
]


def _check(text, path, update_goldens, what):
    if update_goldens:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pytest.skip(f"golden rewritten: {path}")
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest with --update-goldens"
    )
    with open(path, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert text == golden, (
        f"{what} differs from its golden snapshot; if the change is "
        "intentional, regenerate with --update-goldens and review the "
        "diff"
    )


@pytest.mark.parametrize("name,factory", APP_UNITS,
                         ids=[n for n, _ in APP_UNITS])
def test_golden_specialized_python(name, factory, update_goldens):
    program = factory()
    certificate = certificate_for(program)
    assert certificate.ok and certificate.facts is not None, (
        f"app unit {name!r} lost its clean restriction certificate"
    )
    unit = compile_program(program, certificate=certificate)
    _check(unit.source, os.path.join(GOLDEN_DIR, f"{name}.py.txt"),
           update_goldens, f"specialized Python for {name!r}")


@pytest.mark.parametrize("name,factory", APP_UNITS,
                         ids=[n for n, _ in APP_UNITS])
def test_golden_c_source(name, factory, update_goldens):
    program = factory()
    supported, reason = batch_support(program)
    if not supported:
        pytest.skip(f"batch engine unsupported for {name!r}: {reason}")
    lowered = compile_program(program).lowered
    source = print_c(lowered, StateLayout(program))
    _check(source, os.path.join(GOLDEN_DIR, f"{name}.c.txt"),
           update_goldens, f"C kernel source for {name!r}")


def test_goldens_directory_has_no_strays():
    expected = set()
    for name, factory in APP_UNITS:
        expected.add(f"{name}.py.txt")
        if batch_support(factory())[0]:
            expected.add(f"{name}.c.txt")
    present = {
        entry for entry in os.listdir(GOLDEN_DIR)
        if not entry.startswith(".")
    }
    assert present == expected, (
        f"stray or missing goldens: {sorted(present ^ expected)}"
    )
