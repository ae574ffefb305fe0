"""The structured run report and the ``python -m repro.report`` CLI."""

import json

import pytest

from repro.memory import MemoryConfig, SinkPu, simulate_channels
from repro.obs import (
    REPORT_SCHEMA,
    Observation,
    build_report,
    format_report,
    validate_report,
)
from repro.report import APPS, main, make_streams, run_instrumented


def _observed(channels=2):
    obs = Observation()
    simulate_channels(
        MemoryConfig(), lambda i: [SinkPu(1 << 12) for _ in range(8)],
        channels=channels, fixed_cycles=1_500, obs=obs,
    )
    return obs


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------


def test_report_structure_and_invariants():
    obs = _observed()
    report = validate_report(build_report(obs))
    assert report["schema"] == REPORT_SCHEMA
    assert len(report["channels"]) == 2
    for channel in report["channels"]:
        assert sum(channel["attribution"].values()) == channel["cycles"]
    agg = report["aggregate"]
    assert agg["cycles"] == sum(c["cycles"] for c in report["channels"])
    assert sum(agg["attribution"].values()) == agg["cycles"]
    json.loads(json.dumps(report))  # plain JSON-serializable data


def test_validate_report_catches_corruption():
    report = build_report(_observed())
    report["channels"][0]["attribution"]["idle"] += 1
    with pytest.raises(AssertionError):
        validate_report(report)


def test_format_report_mentions_categories_and_pus():
    obs = _observed(channels=1)
    text = format_report(build_report(obs))
    assert "data_beat_in" in text
    assert "channel 0" in text
    # Observation.summary() is the same rendering.
    assert obs.summary() == text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_make_streams_deterministic():
    a = make_streams(3, 256, seed=7)
    b = make_streams(3, 256, seed=7)
    assert a == b
    assert len(a) == 3 and all(len(s) == 256 for s in a)
    assert make_streams(1, 256, seed=8) != [a[0]]


def test_run_instrumented_returns_observed_result():
    result, obs = run_instrumented(
        app="sink", streams=2, stream_bytes=512
    )
    assert result.observation is obs
    assert obs.channels
    validate_report(build_report(obs))


def test_cli_human_output(capsys):
    assert main(["--app", "identity", "--streams", "2",
                 "--stream-bytes", "512"]) == 0
    out = capsys.readouterr().out
    assert "identity" in out
    assert "data_beat_in" in out


def test_cli_writes_json_and_trace(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.json"
    assert main(["--app", "sink", "--streams", "2",
                 "--stream-bytes", "512",
                 "--json", str(json_path),
                 "--trace", str(trace_path)]) == 0
    report = json.loads(json_path.read_text())
    assert report["schema"] == REPORT_SCHEMA
    validate_report(report)
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]

    capsys.readouterr()  # drop the table output


def test_cli_json_to_stdout(capsys):
    assert main(["--streams", "1", "--stream-bytes", "256",
                 "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    report = json.loads(payload)
    assert report["schema"] == REPORT_SCHEMA


def test_cli_has_no_engine_flag(capsys):
    # The memory simulator runs one way; there is no engine to choose.
    with pytest.raises(SystemExit) as excinfo:
        main(["--engine", "stepped"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cli_apps_registry():
    for name, factory in APPS.items():
        unit = factory()
        assert unit is not None, name
