"""Bloom filter construction."""

from repro.apps import bloom_contains, bloom_filter_unit, bloom_reference
from repro.interp import make_simulator

CFG = dict(block_size=8, num_hashes=4, section_bits=256)


def items_to_bytes(items):
    return [b for item in items for b in item.to_bytes(4, "little")]


def test_unit_matches_reference(rnd):
    data = [rnd.randrange(256) for _ in range(8 * 4 * 3)]
    unit = bloom_filter_unit(**CFG)
    assert make_simulator(unit).run(data) == bloom_reference(data, **CFG)


def test_no_false_negatives(rnd):
    items = [rnd.randrange(1 << 32) for _ in range(8)]
    unit = bloom_filter_unit(**CFG)
    out = make_simulator(unit).run(items_to_bytes(items))
    filter_bytes = out[: 4 * 32]
    for item in items:
        assert bloom_contains(filter_bytes, item, 4, 256)


def test_filters_reset_between_blocks(rnd):
    items = [rnd.randrange(1 << 32) for _ in range(16)]
    unit = bloom_filter_unit(**CFG)
    out = make_simulator(unit).run(items_to_bytes(items))
    first, second = out[:128], out[128:]
    # second block's filter contains only the second block's items
    for item in items[:8]:
        if not bloom_contains(second, item, 4, 256):
            break
    else:
        # all first-block items "present" in block 2 would mean the
        # filter was never cleared (or an astronomical FP coincidence)
        raise AssertionError("filter not cleared between blocks")


def test_partial_block_not_emitted(rnd):
    unit = bloom_filter_unit(**CFG)
    out = make_simulator(unit).run(items_to_bytes([1, 2, 3]))
    assert out == []


def test_output_size_per_block():
    unit = bloom_filter_unit(**CFG)
    out = make_simulator(unit).run(items_to_bytes(list(range(8))))
    assert len(out) == CFG["num_hashes"] * CFG["section_bits"] // 8


def test_duplicate_items_idempotent():
    unit = bloom_filter_unit(**CFG)
    once = make_simulator(unit).run(items_to_bytes([7] * 8))
    unit2 = bloom_filter_unit(**CFG)
    twice = make_simulator(unit2).run(items_to_bytes([7, 7, 7, 7] * 2))
    assert once == twice


def test_false_positive_rate_reasonable(rnd):
    # 8 items, 4 hashes, 256-bit sections: FP rate should be small.
    items = [rnd.randrange(1 << 32) for _ in range(8)]
    unit = bloom_filter_unit(**CFG)
    out = make_simulator(unit).run(items_to_bytes(items))
    filter_bytes = out[: 4 * 32]
    probes = [rnd.randrange(1 << 32) for _ in range(300)]
    false_positives = sum(
        1
        for p in probes
        if p not in items and bloom_contains(filter_bytes, p, 4, 256)
    )
    assert false_positives / len(probes) < 0.15
