"""Golden snapshots of the lint CLI's machine-readable output.

``python -m repro.lint --all-apps --severity warning`` writes one JSON
report and one SARIF log for every application unit. Both are pinned
byte for byte under ``tests/lint/goldens/``, so any change to a finding,
its location, a certificate, a fact count or a cost bound shows up as a
reviewable diff::

    PYTHONPATH=src python -m pytest tests/lint/test_goldens.py \
        --update-goldens
"""

import os

import pytest

from repro.lint.__main__ import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The JSON and SARIF text of one ``--all-apps`` lint run."""
    out = tmp_path_factory.mktemp("lint_goldens")
    json_path, sarif_path = out / "all_apps.json", out / "all_apps.sarif"
    main(["--all-apps", "--severity", "warning",
          "--json", str(json_path), "--sarif", str(sarif_path)])
    return {"all_apps.json": json_path.read_text(encoding="utf-8"),
            "all_apps.sarif": sarif_path.read_text(encoding="utf-8")}


@pytest.mark.parametrize("name", ["all_apps.json", "all_apps.sarif"])
def test_lint_output_matches_golden(name, outputs, update_goldens):
    path = os.path.join(GOLDEN_DIR, name)
    if update_goldens:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(outputs[name])
        pytest.skip(f"golden rewritten: {path}")
    assert os.path.exists(path), (
        f"missing golden {path}; run pytest with --update-goldens"
    )
    with open(path, "r", encoding="utf-8") as handle:
        golden = handle.read()
    assert outputs[name] == golden, (
        f"lint output {name} differs from its golden snapshot; if the "
        "change is intentional, regenerate with --update-goldens and "
        "review the diff"
    )
