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
    # The compiled engine prints subtraction as "(lhs - rhs) & mask";
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
    assert info.value.stage == "compiled-certified"


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


@pytest.mark.needs_kernel
def test_batch_engine_axis_agrees():
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
        engines=("interp", "compiled-certified", "batch"),
    )


def test_batch_engine_axis_detects_injected_bug():
    spec = {
        "name": "sub", "input_width": 8, "output_width": 8,
        "regs": [], "vregs": [], "brams": [],
        "body": [["emit", ["bin", "sub", ["const", 10, 4], ["input"]]]],
    }
    # The planted miscompile lives in the *compiled* engine, so the
    # batch stage (which compares against the interpreter) must not
    # mask it: the run still fails at the compiled-certified stage.
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            spec, [[3]], rtl=False, verilog=False,
            engines=("interp", "compiled-certified", "batch"),
            source_transform=lambda src: src.replace(" - ", " + "),
        )
    assert info.value.stage == "compiled-certified"


@pytest.mark.needs_kernel
def test_batch_engine_axis_compares_bram_state(monkeypatch):
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


@pytest.mark.needs_kernel
def test_small_fuzz_budget_with_batch_axis():
    report = ConformanceEngine(
        seed="pytest-batch", max_programs=15, rtl=False, verilog=False,
        engines=("interp", "compiled-certified", "batch"),
    ).run()
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Certified-specialized axis and the batch axis's C kernel
# ---------------------------------------------------------------------------

SUB_SPEC = {
    "name": "sub", "input_width": 8, "output_width": 8,
    "regs": [], "vregs": [], "brams": [],
    "body": [["emit", ["bin", "sub", ["const", 10, 4], ["input"]]]],
}


@pytest.mark.needs_kernel
def test_specialized_and_cc_axes_agree():
    # The batch axis runs certified programs on their C kernel; both
    # axes compare against the interpreter.
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
        engines=("interp", "compiled-certified", "batch"),
    )


def test_specializing_axes_skip_uncertified_programs():
    from repro.lang import UnitBuilder

    b = UnitBuilder("conflict", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite two-writes conflict: never certifies
    program = b.finish()
    # Uncertified programs have no compiled unit and no batch kernel
    # by design: both stages are silent no-ops.
    assert differential.compile_transformed(program) is None
    from repro.interp import batch_engine_for

    assert batch_engine_for(program) is None
    differential.check_batch(program, [[1]])


def test_specialized_axis_detects_injected_bug(monkeypatch):
    # A miscompile planted in the certified unit: the emit's 8-bit
    # truncation dropped, so 10 - 3 stays right but 10 - 12 escapes the
    # output width.
    real = differential.compile_program

    def faulty(program):
        unit = real(program)
        source = unit.source.replace(" & 0xff)", ")")
        return differential.unit_from_source(program, unit.lowered, source)

    monkeypatch.setattr(differential, "compile_program", faulty)
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(SUB_SPEC, [[3], [12]], rtl=False,
                                   verilog=False)
    assert info.value.stage == "compiled-certified"
    assert "stream 1" in info.value.detail


@pytest.mark.needs_kernel
def test_batch_axis_detects_injected_native_bug(monkeypatch):
    import repro.interp.cc as cc_mod
    from repro.interp import compile_batch

    # Swap in a kernel built for a subtly different program (11 - x
    # instead of 10 - x): a fresh, valid build whose outputs are wrong.
    altered = dict(SUB_SPEC, name="sub-alt", body=[
        ["emit", ["bin", "sub", ["const", 11, 4], ["input"]]],
    ])
    other = differential.spec_mod.build_unit(altered)
    wrong_kernel = compile_batch(other).cc
    monkeypatch.setattr(
        cc_mod, "compile_cc",
        lambda program, layout: wrong_kernel,
    )
    program = differential.spec_mod.build_unit(SUB_SPEC)
    with pytest.raises(differential.Mismatch) as info:
        differential.check_batch(program, [[3]])
    assert info.value.stage == "batch"


@pytest.mark.needs_kernel
def test_small_fuzz_budget_with_all_axes():
    report = ConformanceEngine(
        seed="pytest-axes", max_programs=15, rtl=False, verilog=False,
        engines=("interp", "compiled-certified", "batch"),
    ).run()
    assert report.ok, report.summary()


def test_planted_bool_leak_raises_mismatch():
    # A bool is equal to its int (`True == 1`), so only the type-strict
    # compare sees a compiled engine that emits or stores a bare
    # comparison. Plant one by stripping the int() the printer wraps
    # such values in.
    spec = {
        "name": "cmp", "input_width": 8, "output_width": 8,
        "regs": [["flag", 1, 0]], "vregs": [], "brams": [],
        "body": [
            ["emit", ["bin", "lt", ["input"], ["const", 5, 3]]],
        ],
    }
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            spec, [[1, 9]], rtl=False, verilog=False,
            source_transform=lambda src: src.replace(
                "outputs.append(int(", "outputs.append(bool("),
        )
    assert info.value.stage == "compiled-certified"
    assert "outputs[0] differs in type: interp=int " \
        "compiled-certified=bool" in info.value.detail

    state_spec = dict(spec, body=[
        ["set", "flag", ["bin", "eq", ["input"], ["const", 3, 2]]],
        ["emit", ["input"]],
    ])
    with pytest.raises(differential.Mismatch) as info:
        differential.check_program(
            state_spec, [[3]], rtl=False, verilog=False,
            source_transform=lambda src: src.replace(" = int(", " = bool("),
        )
    assert "final state['flag'] differs in type" in info.value.detail
