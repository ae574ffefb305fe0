"""Calibrated cost-model guarantees, over all eleven app units.

Two layers:

* **Pinned golden coefficients.** The ``(per_token, fixed)`` pair the
  cost model calibrates for each app unit is a pure function of the
  unit's semantics and the seeded calibration samples; any drift means
  either an engine stopped being bit-identical to the interpreter or a
  unit's cycle structure changed — both are release-note events, not
  noise. Exact equality, no tolerances.
* **Hypothesis property.** The predicted virtual-cycle cost is monotone
  non-decreasing in stream length for every app — the invariant the
  skew-aware packer's LPT ordering leans on (a longer stream may never
  be predicted cheaper than a shorter one).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.json_parser import encode_field_table
from repro.apps.string_search import AhoCorasick
from repro.bench.workloads import make_gbt_model, rng
from repro.lint.units import APP_UNIT_BUILDERS
from repro.serve import CompiledAppCache, CostModel, ServedApp


def _headers():
    """Fixed, seeded stream headers for the units that parse one."""
    return {
        "decision_tree": make_gbt_model(
            rng(2), n_features=8, n_trees=4, depth=3
        ).encode_header(),
        "json_field": encode_field_table(("id",), max_states=8),
        "smith_waterman": b"ACGT" + bytes([8, 0]),
        "string_search": AhoCorasick(
            (b"ab", b"cd"), max_states=16
        ).encode_header(),
    }


def _cost_model():
    headers = _headers()
    apps = {
        name: ServedApp(name, builder, header=headers.get(name, b""))
        for name, builder in APP_UNIT_BUILDERS.items()
    }
    return CostModel(CompiledAppCache(apps))


#: app -> (per_token, fixed): the exact calibration output. Pinned; see
#: the module docstring for what a mismatch means.
GOLDEN_COEFFICIENTS = {
    "block_frequencies": (3.6666666666666665, 1.0),
    "bloom_filter": (3.0, 1.0),
    "csv_extract": (1.0, 1.0),
    "decision_tree": (2.1875, 713.0),
    "identity": (1.0, 1.0),
    "int_coding": (2.5208333333333335, 1.0),
    "json_field": (1.0, 9.0),
    "regex_match": (1.0, 1.0),
    "sink": (1.0, 1.0),
    "smith_waterman": (1.0, 7.0),
    "string_search": (1.0, 39.0),
}


def test_golden_covers_every_app_unit():
    assert set(GOLDEN_COEFFICIENTS) == set(APP_UNIT_BUILDERS)


def test_calibrated_coefficients_match_golden():
    model = _cost_model()
    calibrated = {
        name: model.coefficients(name) for name in APP_UNIT_BUILDERS
    }
    assert calibrated == GOLDEN_COEFFICIENTS


def test_calibration_is_deterministic_across_models(monkeypatch):
    from repro.lint import certificate

    coefficients = []
    for _ in range(2):
        # Coefficients are kept once per process: give each model an
        # empty artifact map, so both calibrate.
        monkeypatch.setattr(certificate, "_ARTIFACTS", {})
        model = _cost_model()
        coefficients.append(
            {name: model.coefficients(name) for name in APP_UNIT_BUILDERS}
        )
    assert coefficients[0] == coefficients[1]


#: One shared model for the property — calibration is deterministic
#: (asserted above), so reuse is sound and keeps examples fast.
_MODEL = _cost_model()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(APP_UNIT_BUILDERS)),
    short=st.integers(min_value=0, max_value=4096),
    extra=st.integers(min_value=0, max_value=4096),
)
def test_predicted_cost_monotone_in_stream_length(name, short, extra):
    small = _MODEL.predict(name, bytes(short))
    large = _MODEL.predict(name, bytes(short + extra))
    assert small <= large
    assert small >= 1.0  # at least the fixed floor
