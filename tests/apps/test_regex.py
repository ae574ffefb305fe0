"""Regex parsing, Glushkov construction, and the NFA-circuit unit."""

import re

import pytest

from repro.apps import build_automaton, regex_match_unit, regex_reference
from repro.apps.regex import EMAIL_PATTERN, RegexSyntaxError
from repro.interp import make_simulator


def oracle_end_positions(pattern, text):
    """Brute force: j is a hit iff some substring ending at j fully
    matches. O(n^2) but independent of our construction."""
    return [
        j
        for j in range(len(text))
        if any(
            re.fullmatch(pattern, text[i:j + 1]) for i in range(j + 1)
        )
    ]


@pytest.mark.parametrize("pattern,text", [
    ("abc", "zabcabcz"),
    ("a+", "aaabaa"),
    ("ab*c", "ac abc abbbbc"),
    ("a(b|c)d", "abd acd aed"),
    ("[0-9]+", "a12b345"),
    ("[^a]b", "ab cb bb"),
    ("(ab)+", "ababab"),
    ("a.c", "abc axc a\nc"),
    ("colou?r", "color colour colr"),
])
def test_reference_matches_re_oracle(pattern, text):
    assert regex_reference(list(text.encode()), pattern) == (
        oracle_end_positions(pattern, text)
    )


@pytest.mark.parametrize("pattern,text", [
    ("ab*(c|d)+", "abdcc xacd abbbbd"),
    ("[a-c]+x", "abcx bx zx"),
])
def test_unit_matches_reference(pattern, text):
    unit = regex_match_unit(pattern)
    data = list(text.encode())
    assert make_simulator(unit).run(data) == regex_reference(data, pattern)


def test_email_pattern_on_realistic_text():
    text = (b"reach me at first.last+tag@company-name.co.uk today, "
            b"not at bad@@x or @nothing")
    unit = regex_match_unit(EMAIL_PATTERN)
    out = make_simulator(unit).run(list(text))
    assert out == regex_reference(list(text), EMAIL_PATTERN)
    assert out  # the real address matched


class TestParser:
    def test_nullable_patterns_rejected(self):
        for pattern in ("a*", "a?", "(a|b)*", ""):
            with pytest.raises(RegexSyntaxError):
                build_automaton(pattern)

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(RegexSyntaxError):
            build_automaton("(ab")

    def test_bad_range_rejected(self):
        with pytest.raises(RegexSyntaxError):
            build_automaton("[z-a]")

    def test_escaped_metachars(self):
        auto = build_automaton(r"\.\*")
        assert auto.size == 2

    def test_position_count_is_character_count(self):
        auto = build_automaton("a(b|c)d*e")
        assert auto.size == 5

    def test_char_class_negation(self):
        auto = build_automaton("[^abc]")
        assert ord("a") not in auto.classes[0]
        assert ord("z") in auto.classes[0]


def test_state_register_count_matches_positions():
    pattern = "a(b|c)+d"
    unit = regex_match_unit(pattern)
    auto = build_automaton(pattern)
    state_regs = [r for r in unit.regs if r.name.startswith("state_")]
    assert len(state_regs) == auto.size
