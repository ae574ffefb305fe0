"""Serving registrations for the benchmark-catalog applications.

:func:`catalog_apps` names each served app with its catalog key, so the
DSE wiring (:meth:`ServeConfig.from_dse
<repro.serve.server.ServeConfig.from_dse>`) can match tuned batch sizes
to registered apps by name. Headers are fixed and seeded — the same
field table, model, and target every process — because the cost model
calibrates over ``header + sample`` streams and serve reports must stay
byte-identical run to run.

The bloom filter serves the catalog's functionally scaled-down
profiling configuration (identical output ratio and cycle structure to
the production one, paper Section 7.2) — pure-Python simulation of the
production 4096-item blocks is too slow for a serving batch.
"""

from ..apps import (
    bloom_filter_unit,
    decision_tree_unit,
    int_coding_unit,
    json_field_unit,
    regex_match_unit,
    smith_waterman_unit,
)
from ..apps.json_parser import encode_field_table
from ..bench import workloads as wl
from .cache import ServedApp


def _sw_header():
    threshold = wl.SW_THRESHOLD
    return bytes(wl.SW_TARGET) + bytes(
        [threshold & 0xFF, (threshold >> 8) & 0xFF]
    )


def catalog_apps():
    """ServedApp registry for the six Figure-7 applications, keyed by
    their catalog names (merge with :func:`~repro.serve.server.
    default_apps` when serving both)."""
    dtree_header = wl.make_gbt_model(wl.rng(2)).encode_header()
    return {
        "json_parsing": ServedApp(
            "json_parsing", json_field_unit,
            header=encode_field_table(wl.JSON_FIELDS),
        ),
        "integer_coding": ServedApp("integer_coding", int_coding_unit),
        "decision_tree": ServedApp(
            "decision_tree", decision_tree_unit, header=dtree_header,
        ),
        "smith_waterman": ServedApp(
            "smith_waterman", smith_waterman_unit, header=_sw_header(),
        ),
        "regex": ServedApp("regex", regex_match_unit),
        "bloom_filter": ServedApp(
            "bloom_filter", lambda: bloom_filter_unit(**wl.BLOOM_PROFILE),
        ),
    }
