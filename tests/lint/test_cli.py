"""The ``python -m repro.lint`` CLI: output formats, selftest, and the
corpus/fuzz soundness mode."""

import json

import pytest

from repro.lint.__main__ import main
from repro.lint.findings import FINDING_CLASSES
from repro.lint.sarif import SARIF_VERSION
from repro.lint.soundness import check_corpus, check_fuzz

CORPUS_DIR = "tests/corpus"


def test_selftest_passes(capsys):
    assert main(["--selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out


def test_app_lint_writes_json_and_sarif(tmp_path, capsys):
    json_path = tmp_path / "lint.json"
    sarif_path = tmp_path / "lint.sarif"
    status = main([
        "--app", "regex_match", "--app", "identity",
        "--json", str(json_path), "--sarif", str(sarif_path),
        "--severity", "warning",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "regex_match" in out and "certificate" in out

    payload = json.loads(json_path.read_text())
    assert [entry["program"] for entry in payload] == [
        "regex_match", "identity"]
    for entry in payload:
        assert entry["clean"] is True
        assert entry["certificate"]["certified"] is True
        assert len(entry["certificate"]["fingerprint"]) == 64

    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == SARIF_VERSION
    (run,) = sarif["runs"]
    rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rules == set(FINDING_CLASSES)
    (result,) = run["results"]
    assert result["ruleId"] == "lint/dead-assignment"
    assert result["level"] == "warning"
    location = result["locations"][0]["logicalLocations"][0]
    assert location["fullyQualifiedName"].startswith("regex_match::")


def test_cost_flag_prints_loop_bounds(capsys):
    status = main(["--cost", "--app", "bloom_filter"])
    assert status == 0
    out = capsys.readouterr().out
    assert "vcycles/token [1, 513]" in out
    assert "<= 512 trips/token" in out
    assert "ring emit_idx mod 2^9" in out


def test_nontermination_gate(capsys):
    # decision_tree's unbounded BRAM walk fails the gate unless its
    # reviewed verdict is on the allowlist.
    assert main(["--cost", "--app", "decision_tree",
                 "--fail-on-nontermination"]) == 1
    out = capsys.readouterr().out
    assert "not on the --allow-unbounded list" in out
    assert main(["--cost", "--app", "decision_tree",
                 "--fail-on-nontermination",
                 "--allow-unbounded", "decision_tree"]) == 0


def test_error_findings_set_exit_status(tmp_path, capsys):
    # A spec whose address provably overflows a non-power-of-two BRAM.
    spec = {
        "name": "cli_oob",
        "input_width": 8,
        "output_width": 8,
        "brams": [["m", 5, 8]],
        "body": [["emit", ["bram", "m", ["const", 6, 3]]]],
    }
    path = tmp_path / "oob.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 1
    out = capsys.readouterr().out
    assert "out-of-bounds-address" in out
    assert "NOT certified" in out


def test_unknown_app_exits(capsys):
    with pytest.raises(SystemExit):
        main(["--app", "not_a_unit"])


def test_no_targets_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_corpus_soundness():
    result = check_corpus(CORPUS_DIR)
    assert result.ok, result.render()
    assert result.checked >= 10
    assert 0 < result.compared <= result.certified
    assert not result.skipped, result.render()


def test_soundness_catches_a_fault_in_the_compiled_unit(monkeypatch):
    # The second pass runs the engine that skips the checks, so a
    # miscompile planted there (bit 0 of every emit flipped) shows.
    from repro.lint import soundness
    from repro.testing.differential import compile_transformed

    def planted(program):
        return compile_transformed(program, lambda source: source.replace(
            "outputs.append(", "outputs.append(1 ^ "))

    monkeypatch.setattr(soundness, "try_specialize", planted)
    spec = {"name": "echo", "input_width": 8, "output_width": 8,
            "regs": [], "vregs": [], "brams": [],
            "body": [["emit", ["input"]]]}
    result = soundness.SoundnessResult()
    soundness.check_spec("echo", spec, [[2, 4]], result)
    assert result.compared == 1
    (violation,) = result.violations
    assert isinstance(violation, soundness.SoundnessViolation)
    assert "outputs differ" in violation.detail
    assert "checked=[2, 4, 0] certified=[3, 5, 1]" in violation.detail


def test_fuzz_soundness():
    result = check_fuzz(15, seed=7)
    assert result.ok, result.render()
    assert result.checked == 15


def test_soundness_cli_mode(capsys):
    assert main(["--corpus", CORPUS_DIR, "--fuzz", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "program(s) checked" in out
    assert "compared with certified compiled Python" in out
    assert "no certified program raised a restriction error" in out
