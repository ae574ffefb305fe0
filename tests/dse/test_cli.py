"""``python -m repro.dse`` entry point."""

import json

import pytest

from repro.dse.__main__ import main


def test_selftest_passes(capsys):
    assert main(["--selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: all checks passed" in out
    assert "FAIL" not in out


def test_app_report_is_byte_identical(capsys):
    assert main(["--app", "bloom_filter", "--quick"]) == 0
    first = capsys.readouterr().out
    assert main(["--app", "bloom_filter", "--quick"]) == 0
    assert capsys.readouterr().out == first
    assert "bloom_filter" in first
    assert "pareto" in first.lower()


def test_json_output_parses(capsys):
    assert main(["--app", "bloom_filter", "--quick", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["app"] == "bloom_filter"
    assert payload["best"]["gbps"] >= payload["baseline"]["gbps"]
    assert payload["pareto"]
    assert payload["mode"] == "quick"


def test_unknown_app_is_an_error():
    with pytest.raises(SystemExit):
        main(["--app", "definitely_not_an_app", "--quick"])


def test_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_seed_and_cache_flags(capsys, tmp_path):
    cache = tmp_path / "cache"
    assert main(["--app", "bloom_filter", "--quick", "--json",
                 "--seed", "3", "--cache", str(cache)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 3
    assert list(cache.glob("*.json"))


def test_budget_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--app", "bloom_filter", "--quick", "--budget", "0"])
    assert info.value.code == 2
    assert "--budget must be at least 1" in capsys.readouterr().err
