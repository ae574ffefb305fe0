"""Catalog binding each paper application to its Fleet unit, its ISA
baseline program, and its workload streams — the single source every
benchmark harness draws from, so all platforms always see the same data.

Per-application notes:

* **integer coding** averages over the paper's five input ranges
  [0, 2^5) ... [0, 2^25) — one stream-pair maker per range;
* **bloom filter** profiles a functionally scaled-down unit (smaller
  blocks and filter with the identical output ratio and cycle structure)
  because functional simulation of the production 4096-item blocks is
  slow; area/PU-count still come from the production configuration;
* all streams come from seeded RNGs, so Fleet, CPU, and GPU evaluate
  byte-identical inputs; marginal (small, large) pairs amortize stream
  headers the way the paper's 1 MB/PU streams do.
"""

from ..apps import (
    bloom_filter_unit,
    decision_tree_unit,
    int_coding_unit,
    json_field_unit,
    regex_match_unit,
    smith_waterman_unit,
)
from ..baselines.apps.bloom_isa import bloom_program
from ..baselines.apps.decision_tree_isa import decision_tree_program
from ..baselines.apps.int_coding_isa import int_coding_program
from ..baselines.apps.json_isa import json_program
from ..baselines.apps.regex_isa import regex_program
from ..baselines.apps.smith_waterman_isa import smith_waterman_program
from ..baselines.cpu import BLOOM_AVX2_SPEEDUP
from . import workloads as wl
from .workloads import BLOOM_PROFILE

#: Default marginal-profiling sizes (payload bytes).
SMALL, LARGE = 1_200, 3_600
#: GPU warp width used for divergence measurement.
GPU_LANES = 32

# Bloom filter production configuration (Figure 7); the scaled-down
# profiling one is workloads.BLOOM_PROFILE.
BLOOM_PROD = dict(block_size=4096, num_hashes=8, section_bits=2048)


class AppSpec:
    """One application's bindings.

    ``pair_makers`` is a list of ``(seed, make_pair)`` where
    ``make_pair(rnd, small, large)`` returns a (small, large) stream pair;
    several makers are averaged (integer coding's five ranges).
    """

    def __init__(self, key, title, *, unit, program, pair_makers,
                 simd_speedup=1.0, profile_unit=None):
        self.key = key
        self.title = title
        self.unit = unit  # zero-arg factory
        self.profile_unit = profile_unit  # zero-arg factory or None
        self.program = program  # zero-arg factory
        self.simd_speedup = simd_speedup
        self.pair_makers = pair_makers

    def stream_pairs(self, small=SMALL, large=LARGE):
        """One (small, large) stream pair per maker."""
        return [
            make(wl.rng(seed), small, large)
            for seed, make in self.pair_makers
        ]

    def gpu_warp_pairs(self, lanes=GPU_LANES, small=SMALL, large=LARGE):
        """Per maker: a pair of warps, each lane with its own stream."""
        pairs = []
        for seed, make in self.pair_makers:
            rnd = wl.rng(seed)
            warp_small, warp_large = [], []
            for _ in range(lanes):
                s, l = make(rnd, small, large)
                warp_small.append(s)
                warp_large.append(l)
            pairs.append((warp_small, warp_large))
        return pairs


def _json_pair(rnd, small, large):
    text = wl.json_records(rnd, large)
    cut = wl._record_boundary(bytearray(text), small)
    header = wl.encode_field_table(wl.JSON_FIELDS)
    return list(header + text[:cut]), list(header + text)


def _int_pair_factory(bits):
    def make(rnd, small, large):
        data = wl.integer_stream(rnd, large, bits)
        small_cut = small - small % 16
        return data[:small_cut], data

    return make


def _dtree_pair(rnd, small, large):
    model = wl.make_gbt_model(rnd)
    header = model.encode_header()
    point_bytes = 4 * model.n_features
    stream, _, _ = wl.decision_tree_stream(rnd, large, model=model)
    n_small = max(1, small // point_bytes)
    payload = stream[len(header):]
    return list(header) + payload[: n_small * point_bytes], stream


def _sw_pair(rnd, small, large):
    stream = wl.dna_stream(rnd, large)
    header_len = len(wl.SW_TARGET) + 2
    return stream[: header_len + small], stream


def _regex_pair(rnd, small, large):
    text = wl.email_text(rnd, large)
    return text[:small], text


def _bloom_pair(rnd, small, large):
    block_bytes = BLOOM_PROFILE["block_size"] * 4
    blocks_small = max(1, small // block_bytes)
    blocks_large = max(blocks_small + 1, large // block_bytes)
    data = wl.bloom_stream(rnd, blocks_large * block_bytes)
    return data[: blocks_small * block_bytes], data


def catalog():
    """The six Figure 7 applications, in the paper's order."""
    return {
        "json_parsing": AppSpec(
            "json_parsing", "JSON Parsing",
            unit=json_field_unit, program=json_program,
            pair_makers=[(1, _json_pair)],
        ),
        "integer_coding": AppSpec(
            "integer_coding", "Integer Coding",
            unit=int_coding_unit, program=int_coding_program,
            pair_makers=[
                (1000 + bits, _int_pair_factory(bits))
                for bits in wl.INT_CODING_RANGES
            ],
        ),
        "decision_tree": AppSpec(
            "decision_tree", "Decision Tree",
            unit=decision_tree_unit, program=decision_tree_program,
            pair_makers=[(2, _dtree_pair)],
        ),
        "smith_waterman": AppSpec(
            "smith_waterman", "Smith-Waterman",
            unit=smith_waterman_unit, program=smith_waterman_program,
            pair_makers=[(3, _sw_pair)],
        ),
        "regex": AppSpec(
            "regex", "Regex",
            unit=regex_match_unit, program=regex_program,
            pair_makers=[(4, _regex_pair)],
        ),
        "bloom_filter": AppSpec(
            "bloom_filter", "Bloom Filter",
            unit=lambda: bloom_filter_unit(**BLOOM_PROD),
            profile_unit=lambda: bloom_filter_unit(**BLOOM_PROFILE),
            program=lambda: bloom_program(**BLOOM_PROFILE),
            simd_speedup=BLOOM_AVX2_SPEEDUP,
            pair_makers=[(5, _bloom_pair)],
        ),
    }
