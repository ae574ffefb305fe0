"""The differential runner: agreement on a small budget, and detection
of deliberately wrong models via source-transform fault injection."""

import pytest

from repro.testing import differential
from repro.testing.engine import ConformanceEngine

IDENTITY = {
    "name": "ident", "input_width": 8, "output_width": 8,
    "regs": [], "vregs": [], "brams": [],
    "body": [["emit", ["input"]]],
}


def test_check_program_returns_oracle_outputs():
    # The unconditional emit also fires on the stream_finished cleanup
    # cycle, where the input token reads as zero in every model.
    outputs = differential.check_program(
        IDENTITY, [[1, 2, 3], []], rtl=True, verilog=True
    )
    assert outputs == [[1, 2, 3, 0], [0]]


def test_small_fuzz_budget_all_models_agree():
    """Tier-1 smoke fuzz: a slice of the nightly run, full model set."""
    report = ConformanceEngine(seed="pytest", max_programs=40).run()
    assert report.ok, report.summary()
    assert report.programs == 40


def test_injected_compiled_bug_is_detected():
    # The compiled engine renders subtraction as "(lhs - rhs) & mask";
    # turning the subtraction into addition is an arithmetic miscompile
    # the differential runner must catch.
    spec = {
        "name": "sub", "input_width": 8, "output_width": 8,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["bin", "sub", ["const", 10, 4], ["input"]]]],
    }
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            spec, [[3]], rtl=False, verilog=False,
            source_transform=lambda src: src.replace(" - ", " + "),
        )
    assert info.value.stage == "compiled"


def test_mismatch_reports_state_divergence():
    # Same outputs, different final register state must still fail.
    spec = {
        "name": "state", "input_width": 8, "output_width": 8,
        "regs": [["r", 8, 0]], "vregs": [], "brams": [],
        "body": [
            ["set", "r", ["bin", "sub", ["reg", "r"], ["input"]]],
            ["emit", ["input"]],
        ],
    }
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            spec, [[1]], rtl=False, verilog=False,
            source_transform=lambda src: src.replace(" - ", " + "),
        )
    assert "register state" in info.value.detail


def test_rtl_model_runs_under_stalls():
    # Index 1 and 2 pick stalled handshake patterns from the rotation.
    spec = {
        "name": "acc", "input_width": 8, "output_width": 10,
        "regs": [["acc", 10, 0]], "vregs": [], "brams": [],
        "body": [
            ["set", "acc", ["bin", "add", ["reg", "acc"], ["input"]]],
            ["emit", ["reg", "acc"]],
        ],
    }
    streams = [[1, 2, 3], [4, 5], [6]]
    outputs = differential.check_program(spec, streams, rtl=True,
                                         verilog=False)
    assert len(outputs) == 3


def test_batch_engine_axis_agrees():
    pytest.importorskip("numpy")
    spec = {
        "name": "acc", "input_width": 8, "output_width": 10,
        "regs": [["acc", 10, 0]], "vregs": [], "brams": [],
        "body": [
            ["set", "acc", ["bin", "add", ["reg", "acc"], ["input"]]],
            ["emit", ["reg", "acc"]],
        ],
    }
    # Ragged streams incl. an empty one; check_batch also appends an
    # extra empty lane and a batch-of-1 re-run internally.
    differential.check_program(
        spec, [[1, 2, 3], [], [9]], rtl=False, verilog=False,
        engines=("interp", "compiled", "batch"),
    )


def test_batch_engine_axis_detects_injected_bug():
    pytest.importorskip("numpy")
    spec = {
        "name": "sub", "input_width": 8, "output_width": 8,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["bin", "sub", ["const", 10, 4], ["input"]]]],
    }
    # The planted miscompile lives in the *compiled* engine, so the
    # batch stage (which compares against a clean compiled reference)
    # must not mask it: the run still fails at the compiled stage.
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            spec, [[3]], rtl=False, verilog=False,
            engines=("interp", "compiled", "batch"),
            source_transform=lambda src: src.replace(" - ", " + "),
        )
    assert info.value.stage == "compiled"


def test_batch_engine_axis_compares_bram_state(monkeypatch):
    pytest.importorskip("numpy")
    from repro.interp.batch import BatchResult

    spec = {
        "name": "mem", "input_width": 8, "output_width": 8,
        "regs": [], "vregs": [], "brams": [["m", 4, 8]],
        "body": [
            ["bw", "m", ["slice", 1, 0, ["input"]], ["input"]],
            ["emit", ["input"]],
        ],
    }
    program = differential.spec_mod.build_unit(spec)
    differential.check_batch(program, [[1, 2, 3]])
    # Same outputs, traces and registers; only a BRAM differs.
    monkeypatch.setattr(BatchResult, "peek_bram",
                        lambda self, lane, name: [0] * 4)
    with pytest.raises(differential.Mismatch) as info:
        differential.check_batch(program, [[1, 2, 3]])
    assert info.value.stage == "batch"
    assert "final state" in info.value.detail


def test_small_fuzz_budget_with_batch_axis():
    pytest.importorskip("numpy")
    report = ConformanceEngine(
        seed="pytest-batch", max_programs=15, rtl=False, verilog=False,
        engines=("interp", "compiled", "batch"),
    ).run()
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Certified-specialized axis and the batch axis's native cc tier
# ---------------------------------------------------------------------------

SUB_SPEC = {
    "name": "sub", "input_width": 8, "output_width": 8,
    "regs": [], "vregs": [], "brams": [],
    "body": [["emit", ["bin", "sub", ["const", 10, 4], ["input"]]]],
}


def test_specialized_and_cc_axes_agree():
    # The batch axis runs certified programs on the native cc tier when
    # a toolchain is available.
    spec = {
        "name": "acc", "input_width": 8, "output_width": 10,
        "regs": [["acc", 10, 0]], "vregs": [], "brams": [],
        "body": [
            ["set", "acc", ["bin", "add", ["reg", "acc"], ["input"]]],
            ["emit", ["reg", "acc"]],
        ],
    }
    differential.check_program(
        spec, [[1, 2, 3], [], [9]], rtl=False, verilog=False,
        engines=("interp", "compiled", "compiled-certified", "batch"),
    )


def test_specializing_axes_skip_uncertified_programs():
    from repro.lang import UnitBuilder

    b = UnitBuilder("conflict", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite two-writes conflict: never certifies
    program = b.finish()
    # Uncertified programs have no specialized engine and no native
    # kernel by design: the specialized stage is a silent no-op.
    differential.check_specialized(program, [[1]])
    pytest.importorskip("numpy")
    from repro.interp import compile_batch

    assert compile_batch(program).cc is None


def test_specialized_axis_detects_injected_bug(monkeypatch):
    from repro.lang.errors import (
        FleetLoopLimitError,
        FleetSimulationError,
    )
    from repro.testing.differential import CompiledUnit, _NW

    real = differential.compile_program

    def faulty(program, certificate=None):
        unit = real(program, certificate=certificate)
        if certificate is None:
            return unit  # leave the guarded reference clean
        source = unit.source.replace(" - ", " + ")
        namespace = {
            "_NW": _NW,
            "_SimError": FleetSimulationError,
            "_LoopError": FleetLoopLimitError,
        }
        exec(compile(source, "<fleet-injected>", "exec"), namespace)
        return CompiledUnit(
            program, namespace["run_token"], namespace["run_stream"],
            source,
        )

    monkeypatch.setattr(differential, "compile_program", faulty)
    program = differential.spec_mod.build_unit(SUB_SPEC)
    with pytest.raises(differential.Mismatch) as info:
        differential.check_specialized(program, [[3]])
    assert info.value.stage == "compiled-certified"


def test_batch_axis_detects_injected_native_bug(monkeypatch):
    pytest.importorskip("numpy")
    import repro.interp.cc as cc_mod
    from repro.interp import compile_batch

    if not cc_mod.cc_available():
        pytest.skip("no C toolchain (or FLEET_NATIVE=off)")
    # Swap in a kernel built for a subtly different program (11 - x
    # instead of 10 - x): a fresh, valid build whose outputs are wrong.
    altered = dict(SUB_SPEC, name="sub-alt", body=[
        ["emit", ["bin", "sub", ["const", 11, 4], ["input"]]],
    ])
    other = differential.spec_mod.build_unit(altered)
    wrong_kernel = compile_batch(other, backend="cc").cc
    monkeypatch.setattr(
        cc_mod, "compile_cc",
        lambda program, unit, certificate=None: wrong_kernel,
    )
    program = differential.spec_mod.build_unit(SUB_SPEC)
    with pytest.raises(differential.Mismatch) as info:
        differential.check_batch(program, [[3]])
    assert info.value.stage == "batch"


def test_small_fuzz_budget_with_all_axes():
    pytest.importorskip("numpy")
    report = ConformanceEngine(
        seed="pytest-axes", max_programs=15, rtl=False, verilog=False,
        engines=("interp", "compiled", "compiled-certified", "batch"),
    ).run()
    assert report.ok, report.summary()
