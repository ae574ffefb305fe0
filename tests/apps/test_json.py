"""JSON field extraction: table building, the unit, and the golden model."""

import pytest

from repro.apps import json_field_unit, json_fields_reference
from repro.apps.json_parser import (
    TERMINAL_BIT,
    build_field_table,
    make_stream,
)
from repro.interp import make_simulator


def run(fields, text, **kwargs):
    unit = json_field_unit(**kwargs)
    out = make_simulator(unit).run(make_stream(fields, text))
    ref = json_fields_reference(fields, text)
    assert out == ref
    return bytes(out)


class TestFieldTable:
    def test_shared_prefixes_share_states(self):
        entries = build_field_table(["ab", "ac"])
        # a, then b and c: 3 edges
        assert len(entries) == 3

    def test_terminal_bits_set_on_last_edge(self):
        entries = dict(build_field_table(["ab"]))
        values = sorted(entries.values())
        assert sum(1 for v in values if v & TERMINAL_BIT) == 1

    def test_state_overflow_rejected(self):
        with pytest.raises(ValueError, match="trie states"):
            build_field_table(["abcdefghij"], max_states=5)

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            build_field_table([""])


class TestExtraction:
    def test_simple_string_value(self):
        assert run(["name"], b'{"name":"alice"}') == b"alice\n"

    def test_number_value(self):
        assert run(["n"], b'{"n":42,"m":1}') == b"42\n"

    def test_nested_path(self):
        assert run(["a.b"], b'{"a":{"b":"deep"}}') == b"deep\n"

    def test_deeply_nested_path(self):
        assert run(["a.b.c"], b'{"a":{"b":{"c":7}}}') == b"7\n"

    def test_sibling_fields(self):
        assert run(["a.b", "a.c"], b'{"a":{"c":2,"b":1}}') == b"2\n1\n"

    def test_unmatched_keys_ignored(self):
        assert run(["x"], b'{"a":1,"b":"two"}') == b""

    def test_prefix_key_does_not_match(self):
        # "ab" is a target; key "a" must not match.
        assert run(["ab"], b'{"a":1,"ab":2}') == b"2\n"

    def test_array_value_emitted_with_brackets(self):
        assert run(["a"], b'{"a":[1,[2],"x"]}') == b'[1,[2],"x"]\n'

    def test_object_value_descends_not_emitted(self):
        assert run(["a"], b'{"a":{"inner":1}}') == b""

    def test_escapes_kept_raw(self):
        assert run(["s"], b'{"s":"x\\"y"}') == b'x\\"y\n'

    def test_booleans_and_null(self):
        assert (
            run(["t", "u"], b'{"t":true,"u":null}') == b"true\nnull\n"
        )

    def test_multiple_records(self):
        text = b'{"k":1}\n{"k":2}\n{"j":0}\n{"k":3}'
        assert run(["k"], text) == b"1\n2\n3\n"

    def test_same_key_in_nested_context_not_matched(self):
        # "b" alone must not match the nested a.b.
        assert run(["b"], b'{"a":{"b":1},"b":2}') == b"2\n"

    def test_whitespace_tolerated(self):
        assert run(["k"], b'{ "k" : 5 , "j" : 1 }') == b"5\n"

    def test_matched_value_inside_unmatched_object_skipped(self):
        assert run(["a.b"], b'{"z":{"b":9},"a":{"b":1}}') == b"1\n"

    def test_empty_object(self):
        assert run(["k"], b"{}") == b""

    def test_strings_with_braces_do_not_confuse_nesting(self):
        assert run(["k"], b'{"j":"}{","k":1}') == b"1\n"

    def test_empty_field_table_extracts_nothing(self):
        unit = json_field_unit()
        stream = make_stream([], b'{"k":1}')
        assert make_simulator(unit).run(stream) == []


def test_reference_and_unit_agree_on_generated_records(rnd):
    from repro.bench.workloads import JSON_FIELDS, json_records

    text = json_records(rnd, 2500)
    run(list(JSON_FIELDS), text)
