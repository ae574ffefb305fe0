"""Synthetic workload generators for the six evaluation applications.

The paper's integer-coding inputs are already synthetic (uniform draws
from [0, 2^5) ... [0, 2^25), averaged); for the other applications we
generate inputs with the statistics the paper describes: JSON record
streams whose extracted fields are ~20% of the bytes (the paper's JSON
workload reduces input by 80%), DNA text for Smith-Waterman, prose with
embedded email addresses for regex, and random keys for the Bloom filter.

Every generator takes a seeded :class:`random.Random` so workloads are
reproducible across the Fleet, CPU, GPU, and HLS harnesses.
"""

import random
import string

from ..apps.decision_tree import GbtModel, TreeNode, encode_points
from ..apps.json_parser import encode_field_table
from ..apps.smith_waterman import make_stream as sw_make_stream

#: Integer-coding ranges the paper averages over (Section 7.2).
INT_CODING_RANGES = (5, 10, 15, 20, 25)

JSON_FIELDS = ("user.id", "user.name", "status")


def rng(seed=20200316):
    """The default seeded generator (the paper's conference date)."""
    return random.Random(seed)


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


def json_records(rnd, nbytes):
    """Newline-separated nested JSON records; extracted fields are roughly
    20% of the bytes.

    Records are deliberately heterogeneous — variable-length names,
    optional fields, varying tag counts and nesting — because real record
    streams are: this is what makes per-stream control flow diverge on the
    CPU/GPU (Section 7.2) while leaving Fleet's one-token-per-cycle
    processing untouched.
    """
    out = bytearray()
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel"]
    while len(out) < nbytes:
        name = rnd.choice(words) + "-" + str(
            rnd.randrange(10 ** rnd.randrange(2, 5))
        )
        tags = ",".join(
            str(rnd.randrange(1000)) for _ in range(rnd.randrange(1, 4))
        )
        parts = [
            '"user":{"id":%d,"name":"%s","tags":[%s]}'
            % (rnd.randrange(10 ** rnd.randrange(3, 7)), name, tags),
            '"status":"%s"' % rnd.choice(["ok", "error", "pending"]),
            '"ts":%d' % rnd.randrange(10 ** 9),
        ]
        if rnd.random() < 0.25:
            parts.append(
                '"extra":{"a":%d,"b":"%s"}'
                % (rnd.randrange(100), rnd.choice(words))
            )
        out += ("{" + ",".join(parts) + "}").encode() + b"\n"
    return bytes(out[:_record_boundary(out, nbytes)])


def _record_boundary(buffer, nbytes):
    """Trim to the last whole record within ``nbytes``."""
    end = buffer.rfind(b"\n", 0, nbytes)
    return end + 1 if end >= 0 else nbytes


def json_stream(rnd, nbytes, fields=JSON_FIELDS):
    """Header (field table) + record text, as the unit consumes it."""
    return list(encode_field_table(fields) + json_records(rnd, nbytes))


# ---------------------------------------------------------------------------
# Integer coding
# ---------------------------------------------------------------------------


def integer_stream(rnd, nbytes, range_bits):
    """Uniform 32-bit integers drawn from [0, 2**range_bits)."""
    count = nbytes // 4
    out = bytearray()
    for _ in range(count):
        out += rnd.randrange(1 << range_bits).to_bytes(4, "little")
    return list(out)


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


def make_gbt_model(rnd, *, n_features=8, n_trees=20, depth=6):
    """A random full-ish ensemble (nodes stop early with small
    probability, so paths average close to ``depth``)."""
    nodes = []

    def build(levels):
        if levels == 0 or rnd.random() < 0.1:
            nodes.append(
                TreeNode(is_leaf=True, value=rnd.randrange(1 << 16))
            )
            return len(nodes) - 1
        feature = rnd.randrange(n_features)
        threshold = rnd.randrange(1 << 24)
        left = build(levels - 1)
        right = build(levels - 1)
        nodes.append(TreeNode(is_leaf=False, feature=feature,
                              threshold=threshold, left=left, right=right))
        return len(nodes) - 1

    roots = [build(depth) for _ in range(n_trees)]
    return GbtModel(n_features, roots, nodes)


def decision_tree_stream(rnd, nbytes, model=None):
    """Model header + datapoints filling ~``nbytes``."""
    model = model or make_gbt_model(rnd)
    point_bytes = 4 * model.n_features
    n_points = max(1, nbytes // point_bytes)
    points = [
        [rnd.randrange(1 << 24) for _ in range(model.n_features)]
        for _ in range(n_points)
    ]
    return list(model.encode_header() + encode_points(points)), model, points


# ---------------------------------------------------------------------------
# Smith-Waterman
# ---------------------------------------------------------------------------

DNA = b"ACGT"
SW_TARGET = b"ACGTACGTACGTACGT"
SW_THRESHOLD = 24


def dna_stream(rnd, nbytes, target=SW_TARGET, threshold=SW_THRESHOLD,
               plant_every=4096):
    """DNA payload with near-matches of the target planted periodically."""
    payload = bytearray(rnd.choice(DNA) for _ in range(nbytes))
    approx = bytearray(target)
    if approx:
        approx[len(approx) // 2] = rnd.choice(DNA)
    for offset in range(plant_every, max(0, nbytes - len(approx)),
                        plant_every):
        payload[offset:offset + len(approx)] = approx
    return sw_make_stream(list(target), threshold, payload)


# ---------------------------------------------------------------------------
# Regex
# ---------------------------------------------------------------------------


def email_text(rnd, nbytes, email_every=400):
    """Prose with an email address roughly every ``email_every`` bytes."""
    words = (
        "the quick brown fox jumps over a lazy dog while reading "
        "papers about streaming accelerators and memory controllers"
    ).split()
    out = bytearray()
    since_email = 0
    while len(out) < nbytes:
        if since_email >= email_every:
            user = "".join(rnd.choices(string.ascii_lowercase, k=6))
            host = "".join(rnd.choices(string.ascii_lowercase, k=5))
            out += f" {user}.{rnd.randrange(99)}@{host}.com".encode()
            since_email = 0
        else:
            word = rnd.choice(words)
            out += b" " + word.encode()
            since_email += len(word) + 1
    return list(out[:nbytes])


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------

#: The functionally scaled-down bloom filter the catalog profiles and
#: serving runs: the production configuration's 1/8-byte-out-per-byte-in
#: ratio and emit-while-loop structure, with smaller blocks and filter
#: (:data:`repro.bench.catalog.BLOOM_PROD` is the production one).
BLOOM_PROFILE = dict(block_size=256, num_hashes=8, section_bits=128)


def bloom_stream(rnd, nbytes):
    """Random 32-bit keys."""
    return integer_stream(rnd, nbytes, 32)
