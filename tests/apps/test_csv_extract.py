"""CSV column extraction, oracle-checked against Python's csv module."""

import csv
import io
import random

import pytest

from repro.apps.csv_extract import (
    csv_extract_reference,
    csv_extract_unit,
    decode_fields,
)
from repro.compiler import UnitTestbench
from repro.interp import make_simulator
from repro.lang import prove_program


def csv_oracle(columns, text):
    """Selected fields per the csv module (rows must be '\\n'-terminated)."""
    reader = csv.reader(io.StringIO(text.decode()))
    fields = []
    for row in reader:
        for index in sorted(set(columns)):
            if index < len(row):
                fields.append(row[index].encode())
    return fields


def run(columns, text):
    unit = csv_extract_unit(columns)
    out = make_simulator(unit).run(list(text))
    assert out == csv_extract_reference(columns, text)
    return decode_fields(out)


class TestExtraction:
    def test_plain_columns(self):
        fields = run((0, 2), b"a,b,c\nd,e,f\n")
        assert fields == [b"a", b"c", b"d", b"f"]

    def test_quoted_field_with_comma(self):
        fields = run((1,), b'x,"a,b",z\n')
        assert fields == [b"a,b"]

    def test_doubled_quote_escape(self):
        fields = run((0,), b'"say ""hi""",rest\n')
        assert fields == [b'say "hi"']

    def test_quoted_newline_inside_field(self):
        fields = run((1,), b'a,"two\nlines",c\n')
        assert fields == [b"two\nlines"]

    def test_empty_fields(self):
        fields = run((0, 1, 2), b",,\n")
        assert fields == [b"", b"", b""]

    def test_quote_mid_field_is_literal(self):
        # csv semantics: quotes only matter at field start
        fields = run((0,), b'ab"cd,e\n')
        assert fields == [b'ab"cd']

    def test_missing_columns_skipped(self):
        fields = run((5,), b"a,b\n")
        assert fields == []

    def test_matches_csv_module_oracle(self):
        rnd = random.Random(17)
        cells = ["plain", 'q"uote', "with,comma", "", "multi\nline", "v1"]
        rows = []
        for _ in range(30):
            row = [rnd.choice(cells) for _ in range(rnd.randrange(1, 5))]
            rows.append(row)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        text = buffer.getvalue().encode()
        columns = (0, 2)
        fields = run(columns, text)
        assert fields == csv_oracle(columns, text)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            csv_extract_unit(())
        with pytest.raises(ValueError):
            csv_extract_unit((300,))


class TestUnitProperties:
    def test_one_cycle_per_character(self):
        text = b"a,b,c\n1,2,3\n"
        sim = make_simulator(csv_extract_unit((1,)))
        sim.run(list(text))
        assert sim.trace.total_vcycles == len(text) + 1

    def test_no_brams_needed(self):
        unit = csv_extract_unit((0, 3))
        assert not unit.brams

    def test_statically_proven(self):
        assert prove_program(csv_extract_unit((0, 2))).ok

    def test_rtl_crosscheck(self):
        text = b'id,"name, full",age\n1,"Ada ""L""",36\n'
        unit = csv_extract_unit((1, 2))
        expected = make_simulator(unit).run(list(text))
        outputs, _ = UnitTestbench(unit).run(list(text))
        assert outputs == expected
