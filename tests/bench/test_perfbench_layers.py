"""The traced benchmark run (``perfbench/layers.py``) wraps library
entry points by attribute name, so a rename under ``src/`` must fail
here rather than only in a ``perfbench/run.py --trace 1`` run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_perfbench_layers_install_against_src():
    code = (
        "import layers, tracer\n"
        "t = tracer.Tracer()\n"
        "layers.install(t)\n"
        "t.uninstall()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
