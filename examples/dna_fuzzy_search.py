"""DNA fuzzy search with the Smith-Waterman unit.

The unit streams DNA text against a runtime-supplied target and emits the
stream index whenever any cell of the alignment row crosses the score
threshold; the host then goes back to the input at those indices to
reconstruct the matches — exactly the division of labour the paper
describes for DNA and search applications.

Run with:

    python examples/dna_fuzzy_search.py
"""

import random

from repro.apps import smith_waterman_unit
from repro.apps.smith_waterman import MATCH_SCORE, make_stream
from repro.interp import make_simulator

TARGET = b"ACGTTGCAACGTTGCA"  # 16-mer, as in the paper's experiments
THRESHOLD = 26  # full match scores 32; allow a few edits


def mutate(rnd, fragment, edits):
    out = bytearray(fragment)
    for _ in range(edits):
        out[rnd.randrange(len(out))] = rnd.choice(b"ACGT")
    return bytes(out)


def main():
    rnd = random.Random(42)
    genome = bytearray(rnd.choice(b"ACGT") for _ in range(12_000))
    # plant near-matches with 0..2 mutations
    planted = {}
    for offset, edits in ((1_000, 0), (4_321, 1), (9_876, 2)):
        fragment = mutate(rnd, TARGET, edits)
        genome[offset:offset + len(TARGET)] = fragment
        planted[offset] = (edits, fragment)
    print(f"genome: {len(genome)} bases, {len(planted)} planted "
          f"near-matches of {TARGET.decode()}")

    unit = smith_waterman_unit(target_length=len(TARGET))
    stream = make_stream(list(TARGET), THRESHOLD, list(genome))
    sim = make_simulator(unit)
    hits = sim.run(stream)
    print(f"unit emitted {len(hits)} hit indices "
          f"in {sim.trace.total_vcycles} virtual cycles "
          f"(1 per base — the serial recurrence runs as one row of "
          f"compare-select logic)")

    # Host-side reconstruction: cluster indices and window the input.
    clusters = []
    for index in hits:
        if clusters and index - clusters[-1][-1] <= len(TARGET):
            clusters[-1].append(index)
        else:
            clusters.append([index])
    print(f"\n{len(clusters)} match regions:")
    found_offsets = set()
    for cluster in clusters:
        end = cluster[-1]
        start = max(0, end - 2 * len(TARGET))
        window = bytes(genome[start:end + 1])
        print(f"  ends near {end}: ...{window[-24:].decode()}")
        for offset in planted:
            if start <= offset <= end:
                found_offsets.add(offset)
    missed = set(planted) - found_offsets
    assert not missed, f"planted matches missed: {missed}"
    print("\nall planted near-matches recovered "
          f"(threshold {THRESHOLD}/{MATCH_SCORE * len(TARGET)})")


if __name__ == "__main__":
    main()
