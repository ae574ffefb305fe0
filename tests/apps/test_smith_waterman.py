"""Smith-Waterman fuzzy matching."""

from repro.apps import smith_waterman_reference, smith_waterman_unit
from repro.apps.smith_waterman import make_stream
from repro.interp import make_simulator


def run(target, threshold, payload, m=None):
    m = m or len(target)
    unit = smith_waterman_unit(target_length=m)
    stream = make_stream(list(target), threshold, list(payload))
    out = make_simulator(unit).run(stream)
    assert out == smith_waterman_reference(stream, m)
    return out


def test_exact_match_found():
    # full match scores 2*m; threshold 2*m demands exactness
    hits = run(b"ACGT", 8, b"TTTTACGTTTT")
    assert hits == [7]  # match ends at payload index 7


def test_no_match_below_threshold():
    assert run(b"ACGT", 8, b"TTTTTTTT") == []


def test_fuzzy_match_with_one_mismatch():
    # 7 matches + 1 mismatch: score 2*7 - ... >= 10
    hits = run(b"ACGTACGT", 10, b"XXACGTACCTXX"[:12])
    assert hits  # near-match detected


def test_overlapping_matches_emit_multiple_positions():
    hits = run(b"AA", 4, b"AAAA")
    assert hits == [1, 2, 3]


def test_position_counts_payload_only():
    # header bytes must not shift reported positions
    hits = run(b"AC", 4, b"XXAC")
    assert hits == [3]


def test_threshold_is_16_bit():
    # threshold 300 can never be reached with m=4 (max score 8)
    unit = smith_waterman_unit(target_length=4)
    stream = make_stream(list(b"ACGT"), 300, list(b"ACGTACGT"))
    assert make_simulator(unit).run(stream) == []


def test_one_cycle_per_character(rnd):
    unit = smith_waterman_unit(target_length=8)
    payload = [rnd.choice(b"ACGT") for _ in range(50)]
    stream = make_stream(list(b"ACGTACGT"), 12, payload)
    sim = make_simulator(unit)
    sim.run(stream)
    assert sim.trace.total_vcycles == len(stream) + 1  # strictly serial


def test_gap_alignment_scores():
    # target ACGT vs payload ACGGT: insertion, still above low threshold
    hits = run(b"ACGT", 5, b"ACGGT")
    assert hits
