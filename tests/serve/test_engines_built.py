"""Serve builds only the engines it runs. An app with a kernel serves and
calibrates on it, and its compiled Python stays unbuilt until something
asks for it (the memory simulation does). An app without one builds
compiled Python and calibrates on it. Either way the calibration is the
golden one."""

import pytest

from repro.apps import int_coding_unit
from repro.lint.certificate import artifacts_for
from repro.lint.units import APP_UNIT_BUILDERS
from repro.serve import (
    CompiledAppCache,
    CostModel,
    FleetServer,
    ServeConfig,
    ServedApp,
    validate_serve_report,
)
from repro.serve import cost as cost_mod

from .test_cost_golden import GOLDEN_COEFFICIENTS, _headers


def _model(name):
    app = ServedApp(name, APP_UNIT_BUILDERS[name],
                    header=_headers().get(name, b""))
    return CostModel(CompiledAppCache({name: app}))


def _spy_calibration(monkeypatch):
    """Record what calibration runs: ``("batch", lanes)`` per kernel
    call, the simulator's class name per per-stream run."""
    calls = []
    run_batch, make_sim = cost_mod.run_batch_streams, cost_mod.make_simulator

    def batch(program, streams, **kwargs):
        calls.append(("batch", len(streams)))
        return run_batch(program, streams, **kwargs)

    def simulator(program, **kwargs):
        sim = make_sim(program, **kwargs)
        calls.append(type(sim).__name__)
        return sim

    monkeypatch.setattr(cost_mod, "run_batch_streams", batch)
    monkeypatch.setattr(cost_mod, "make_simulator", simulator)
    return calls


@pytest.mark.needs_kernel
@pytest.mark.parametrize("name", ["identity", "int_coding", "json_field"])
def test_kernel_app_calibrates_on_the_kernel_only(monkeypatch,
                                                  fresh_artifacts, name):
    calls = _spy_calibration(monkeypatch)
    model = _model(name)
    assert model.coefficients(name) == GOLDEN_COEFFICIENTS[name]
    entry = model.cache.entry(name)
    assert entry.engine == "cc"
    assert calls == [("batch", 2)]
    assert artifacts_for(entry.program).specialized is None


@pytest.mark.parametrize("name", ["identity", "int_coding", "json_field"])
def test_without_a_kernel_calibration_uses_compiled_python(monkeypatch,
                                                           fresh_artifacts,
                                                           name):
    monkeypatch.setenv("FLEET_NATIVE", "off")
    calls = _spy_calibration(monkeypatch)
    model = _model(name)
    assert model.coefficients(name) == GOLDEN_COEFFICIENTS[name]
    entry = model.cache.entry(name)
    assert entry.batch_unit is None
    assert entry.engine == "compiled-certified"
    assert artifacts_for(entry.program).specialized
    assert calls == ["CompiledSimulator", "CompiledSimulator"]


@pytest.mark.needs_kernel
def test_memory_sim_builds_compiled_python_on_first_use(fresh_artifacts):
    apps = {"int_coding": ServedApp("int_coding", int_coding_unit)}
    server = FleetServer(apps, ServeConfig(devices=1, memory_sim=True))
    server.start()
    program = server.cache.entry("int_coding").program
    server.cost_model.coefficients("int_coding")
    assert artifacts_for(program).specialized is None
    streams = [bytes(range(i, 4 * 32 + i)) for i in range(3)]
    job = server.submit("int_coding", streams)
    server.drain()
    # The memory path's differential guard raises (and fails the job)
    # if its outputs differ from the kernel's.
    result = job.result(timeout=60)
    report = validate_serve_report(server.report())
    server.stop()
    assert len(result.outputs) == 3
    assert all("attribution" in row for row in report["batches"])
    assert artifacts_for(program).specialized


def test_each_structure_and_header_calibrates_once_per_process(
        monkeypatch, fresh_artifacts):
    # The coefficients depend only on the program structure and the
    # header: a second server's fresh unit of the same structure reuses
    # them, and another header calibrates on its own.
    calls = _spy_calibration(monkeypatch)
    assert _model("json_field").coefficients("json_field") \
        == GOLDEN_COEFFICIENTS["json_field"]
    first = len(calls)
    assert first
    assert _model("json_field").coefficients("json_field") \
        == GOLDEN_COEFFICIENTS["json_field"]
    assert len(calls) == first
    other = ServedApp("json_field", APP_UNIT_BUILDERS["json_field"],
                      header=_headers()["json_field"] + b"\x00")
    CostModel(CompiledAppCache({"json_field": other})) \
        .coefficients("json_field")
    assert len(calls) == 2 * first
