"""Importing the serving runtime loads nothing serving never runs: not
the figure harness, not the ISA baselines it compares against, not the
fuzzer and its soundness replay, and not the unit compiler or the RTL
model."""

import os
import subprocess
import sys

import repro


def _loaded_by_import_serve():
    """The ``repro`` modules a fresh interpreter has loaded after
    ``import repro.serve``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    code = (
        "import sys, repro.serve\n"
        "print('\\n'.join(m for m in sys.modules"
        " if m.split('.')[0] == 'repro'))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def _under(modules, *packages):
    return sorted(m for m in modules for p in packages
                  if m == p or m.startswith(p + "."))


def test_import_serve_skips_the_figure_harness_and_isa_baselines():
    loaded = _loaded_by_import_serve()
    assert "repro.serve.server" in loaded
    assert _under(loaded, "repro.bench.harness", "repro.baselines",
                  "repro.isa") == []


def test_import_serve_skips_the_fuzzer_the_compiler_and_the_rtl_model():
    loaded = _loaded_by_import_serve()
    assert "repro.lint.certificate" in loaded
    assert _under(loaded, "repro.testing", "repro.lint.soundness",
                  "repro.compiler", "repro.rtl") == []
