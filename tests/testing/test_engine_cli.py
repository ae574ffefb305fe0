"""The engine loop, budgets, reporting, CLI, and repro persistence."""

import json

import pytest

from repro.testing import __main__ as cli
from repro.testing import spec as spec_mod
from repro.testing.engine import ConformanceEngine


def _sub_to_add(src):
    return src.replace(" - ", " + ")


def test_run_is_deterministic():
    first = ConformanceEngine(seed="det", max_programs=15).run()
    second = ConformanceEngine(seed="det", max_programs=15).run()
    assert first.ok and second.ok
    assert first.feature_counts == second.feature_counts
    assert (first.streams, first.tokens) == (second.streams, second.tokens)


def test_program_budget_respected():
    report = ConformanceEngine(seed=7, max_programs=9).run()
    assert report.programs == 9


def test_time_budget_stops_early():
    report = ConformanceEngine(seed=7, max_programs=10_000,
                               max_seconds=0.3).run()
    assert report.programs < 10_000
    assert report.ok, report.summary()


def test_failure_limit_and_corpus_persistence(tmp_path):
    corpus_dir = tmp_path / "corpus"
    engine = ConformanceEngine(
        seed="persist", max_programs=200, max_failures=1,
        source_transform=_sub_to_add, corpus_dir=str(corpus_dir),
    )
    report = engine.run()
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.corpus_path is not None
    entry = json.loads(
        open(failure.corpus_path, encoding="utf-8").read()
    )
    assert entry["spec"] == failure.shrunk_spec
    assert entry["streams"] == failure.shrunk_streams
    assert entry["stage"] == "compiled-certified"
    assert "FAIL" in report.summary()


def test_run_one_replays_reported_index():
    engine = ConformanceEngine(seed="persist", max_programs=200,
                               source_transform=_sub_to_add,
                               shrink_failures=False)
    report = engine.run()
    index = report.failures[0].index
    failure = engine.run_one(index)
    assert failure is not None
    assert failure.stage == report.failures[0].stage


def test_cli_success_exit_code(capsys):
    status = cli.main(["--seed", "cli", "--max-programs", "5", "--quiet"])
    captured = capsys.readouterr()
    assert status == 0
    assert "all models agree" in captured.out


def test_cli_only_mode(capsys):
    status = cli.main(["--seed", "cli", "--only", "3", "--quiet"])
    captured = capsys.readouterr()
    assert status == 0
    payload = json.loads(captured.out[: captured.out.rindex("}") + 1])
    assert spec_mod.count_statements(payload["spec"]) >= 1


def test_cli_flags_disable_models():
    status = cli.main(["--seed", "cli", "--max-programs", "5",
                       "--no-rtl", "--no-verilog", "--quiet"])
    assert status == 0


def test_cli_rejects_the_retired_compiled_axis(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--engines", "interp,compiled", "--max-programs", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown engine(s) compiled" in err
    assert "choose from interp, compiled-certified, batch" in err


def test_cli_batch_axis_without_a_kernel_exits_2(monkeypatch, capsys):
    # No kernel can be built: the batch axis would skip every program,
    # so the CLI refuses up front and says why.
    monkeypatch.setenv("FLEET_NATIVE", "off")
    with pytest.raises(SystemExit) as info:
        cli.main(["--engines", "interp,compiled-certified,batch",
                  "--max-programs", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "the batch axis needs a C kernel" in err
    assert "FLEET_NATIVE=off" in err
