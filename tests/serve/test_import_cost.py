"""Importing the serving runtime loads nothing serving never runs: not
the figure harness, not the ISA baselines it compares against."""

import os
import subprocess
import sys

import repro


def test_import_serve_skips_the_figure_harness_and_isa_baselines():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    code = (
        "import sys, repro.serve\n"
        "print(sorted(m for m in sys.modules if m == 'repro.bench.harness'"
        " or m.split('.')[:2] in (['repro', 'baselines'],"
        " ['repro', 'isa'])))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
