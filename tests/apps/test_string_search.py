"""Multi-pattern string search (Aho-Corasick DFA unit)."""

import random

import pytest

from repro.apps.string_search import (
    AhoCorasick,
    make_stream,
    string_search_reference,
    string_search_unit,
)
from repro.compiler import UnitTestbench
from repro.interp import make_simulator
from repro.lang import prove_program


def naive_end_positions(patterns, text):
    """Brute-force oracle, independent of the automaton."""
    text = bytes(text)
    return sorted({
        i + len(p) - 1
        for p in map(bytes, patterns)
        for i in range(len(text) - len(p) + 1)
        if text[i:i + len(p)] == p
    })


def run(patterns, text):
    automaton = AhoCorasick(patterns)
    unit = string_search_unit()
    out = make_simulator(unit).run(make_stream(automaton, text))
    assert out == automaton.scan(text)
    assert out == naive_end_positions(patterns, text)
    return automaton, out


class TestAutomaton:
    def test_simple_match(self):
        _, hits = run([b"abc"], b"xxabcxxabc")
        assert hits == [4, 9]

    def test_overlapping_patterns(self):
        # classic AC example: he / she / his / hers
        _, hits = run([b"he", b"she", b"his", b"hers"], b"ushers")
        assert hits == [3, 5]  # "she"/"he" end at 3, "hers" at 5

    def test_pattern_inside_pattern(self):
        _, hits = run([b"ab", b"abab"], b"ababab")
        assert hits == [1, 3, 5]

    def test_failure_links_across_patterns(self):
        _, hits = run([b"aab", b"ab"], b"aaab")
        assert hits == [3]

    def test_resolve_identifies_patterns(self):
        automaton, hits = run([b"he", b"she", b"hers"], b"ushers")
        assert automaton.resolve(b"ushers", 3) == [0, 1]  # he, she
        assert automaton.resolve(b"ushers", 5) == [2]  # hers

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b""])

    def test_state_budget_enforced(self):
        with pytest.raises(ValueError, match="states"):
            AhoCorasick([bytes(range(100))], max_states=16)

    def test_randomized_against_oracle(self):
        rnd = random.Random(31)
        patterns = [
            bytes(rnd.choice(b"ab") for _ in range(rnd.randrange(1, 5)))
            for _ in range(4)
        ]
        text = bytes(rnd.choice(b"ab") for _ in range(300))
        reference = string_search_reference(patterns, text)
        assert reference == naive_end_positions(patterns, text)


class TestUnit:
    def test_one_cycle_per_character(self):
        automaton = AhoCorasick([b"needle"])
        text = b"a haystack with a needle in it"
        stream = make_stream(automaton, text)
        sim = make_simulator(string_search_unit())
        sim.run(stream)
        assert sim.trace.total_vcycles == len(stream) + 1

    def test_rtl_crosscheck(self):
        automaton = AhoCorasick([b"he", b"she", b"hers"])
        stream = make_stream(automaton, b"she sells seashells; ushers")
        unit = string_search_unit()
        expected = make_simulator(unit).run(stream)
        outputs, _ = UnitTestbench(unit).run(stream)
        assert outputs == expected
        assert expected  # matches exist

    def test_statically_proven(self):
        assert prove_program(string_search_unit()).ok
