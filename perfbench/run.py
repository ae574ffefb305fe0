"""Host-time benchmark for serving (``repro.serve``) and figure
regeneration (``repro.bench``), end to end and layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve_bulk --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``serve_bulk``, ``serve_interactive`` and ``figures`` (see
``BENCHMARK.json`` for why each was chosen).

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` is the median of four processes timed from start until
ready (imports, server built, every app compiled, cost model
calibrated); a fifth then runs the workload. Every time is scaled to a
reference host by host-speed samples (``hostspeed.py``) taken next to
it: by this process between the set-up processes, and by the fifth
around its rounds. So a shared host running faster or slower for a
while does not read as a change in the program; the wall-time values
are printed and saved beside the scaled ones. ``--trace 1`` wraps each
layer's public entry points from outside (``layers.py``) and
reports the per-layer metrics, a self-time table, ``trace.coverage``
with the largest uncovered gaps, and ``trace.overhead``; its spans go to
``.perfbench_out/``. Both print a human-readable summary, then one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every job's outputs and virtual cycles are checked against the AST
interpreter outside the timed windows; a mismatch counts as a failed
job. The deterministic model outputs (serve-report virtual-cycle totals,
Figure 7 and Figure 9 GB/s) are hashed into a digest and the per-app
engine matrix is recorded; both are compared with ``baseline.json``, so
a model change or a native-engine fallback is reported as such, not as
a change in speed.

All processes get ``TMPDIR=.perfbench_tmp`` in the checkout, which pins
the native build cache there; the first run in a checkout warms it.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
from layers import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
#: A child process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170
#: Set-up processes per --trace 0 run.
SETUP_SAMPLES = 4
#: Seconds of host-speed samples before and after each of them.
SETUP_MARK_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "input_mb_per_s": "MB/s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child_env(tmpdir):
    env = dict(os.environ)
    env.pop("FLEET_METRICS", None)
    env.pop("FLEET_TRACE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmpdir
    # One string-hash seed for every process: with random ones, dict
    # and set layouts, and with them speeds, differ from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(worker_args, tmpdir):
    """Run a worker; returns ``(seconds until READY, result or None)``."""
    os.makedirs(tmpdir, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + worker_args, cwd=ROOT,
        env=child_env(tmpdir), stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise ChildFailed(f"worker {' '.join(worker_args)} exited {code}")
    return ready, result


def native_builds(tmpdir):
    return len(glob.glob(os.path.join(tmpdir, "fleet-cc-*", "*.so")))


def warm_setup(workload):
    """One set-up sample from a warm native build cache; a sample that
    had to build a kernel is discarded and taken again."""
    for _ in range(3):
        before = native_builds(TMP)
        seconds, _ = spawn(["--workload", workload, "--setup-only"], TMP)
        if native_builds(TMP) == before:
            return seconds
    raise ChildFailed("native build cache did not settle")


def cold_build_seconds():
    """Serve set-up with an empty native build cache minus set-up with a
    warm one: what the native builds cost a cold checkout."""
    cold_dir = os.path.join(TMP, f"cold-{os.getpid()}")
    shutil.rmtree(cold_dir, ignore_errors=True)
    try:
        cold, _ = spawn(["--workload", "serve_bulk", "--setup-only"],
                        cold_dir)
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)
    return cold - warm_setup("serve_bulk")


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "cc": cc}


def compare_baseline(workload, seed, result):
    """``(comparable, digest_status)`` against ``baseline.json``."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    engines = result["engines"]
    comparable = engines is None or engines == baseline["engines"]
    key = workload if workload == "figures" else f"{workload}:{seed}"
    expected = baseline["digests"].get(key)
    if expected is None:
        status = "no baseline digest for this seed"
    elif expected == result["digest"]:
        status = "matches baseline"
    else:
        status = "DIFFERS from baseline: model change, not a speed change"
    return comparable, status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark for repro.serve and repro.bench."
    )
    parser.add_argument("--workload", required=True, choices=(
        "serve_bulk", "serve_interactive", "figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    marker = os.path.join(TMP, "warm")
    if not os.path.exists(marker):
        warm_setup("serve_bulk")
        open(marker, "w").close()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    setups, scales = [], []
    try:
        if args.trace:
            cold = cold_build_seconds()
            worker_args += ["--spans",
                            os.path.join(OUT, f"spans-{tag}.json")]
        else:
            speed = hostspeed.HostSpeed()
            speed.mark(SETUP_MARK_S)
            for _ in range(SETUP_SAMPLES):
                setups.append(warm_setup(args.workload))
                speed.mark(SETUP_MARK_S)
            scales = speed.scales()
        _, result = spawn(worker_args, TMP)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["interp.native_build_cold_s"] = cold
        units = {name: target[0] for name, target in TARGETS.items()}
    else:
        metrics["setup_s"] = statistics.median(
            s * k for s, k in zip(setups, scales))
        result["wall_metrics"]["setup_s"] = statistics.median(setups)
        units = END_TO_END
    comparable, digest_status = compare_baseline(
        args.workload, args.seed, result)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, setup_samples=setups,
                  setup_scales=scales,
                  environment=environment(), comparable=comparable,
                  digest_status=digest_status, metrics=metrics)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = record["environment"]
    print(f"  environment: {env['cpu']}, nproc={env['nproc']}, "
          f"{env['cc']}, " + ", ".join(
              f"{k}={v}" for k, v in result["versions"].items())
          + f", FLEET_*={result['fleet_env']}")
    if result["engines"] is not None:
        print(f"  engines: {result['engines']['engines']}")
    print("  engine matrix: " + ("matches baseline" if comparable else
          "DIFFERS from baseline: runs are not comparable"))
    print(f"  model digest {result['digest']}: {digest_status}")
    print(f"  {result['ops']} jobs checked: one warm-up round, then "
          f"{result['rounds']} rounds, {result['measured_s']:.2f} s measured")
    print(f"  error_rate {result['failed'] / result['ops']:.6g} "
          f"({result['failed']} failed / {result['ops']} attempted)")
    if args.trace:
        print(f"  {'span':<28}{'calls':>9}{'total s':>11}{'self s':>11}")
        for name, calls, total, own in result["self_times"]:
            print(f"  {name:<28}{calls:>9}{total:>11.4f}{own:>11.4f}")
        if metrics["trace.coverage"] < 0.95:
            for label, secs, share in result["gaps"]:
                print(f"  uncovered: {label}: {secs:.4f} s "
                      f"({share:.1%} of the end-to-end windows)")
    else:
        setup_text = " ".join(f"{s:.3f}x{k:.3f}"
                              for s, k in zip(setups, scales))
        print(f"  setup samples (wall s x host-speed scale): {setup_text}; "
              f"{result['latency_samples']} latency samples")
        scales = result["round_scales"]
        print(f"  host-speed scale {result['speed_scale']:.4f} over the "
              f"run, {min(scales):.4f}-{max(scales):.4f} per round")
        if result["figure_s"] is not None:
            print(f"  figure_s {result['figure_s']:.4f} s")
        for name, value in sorted(result["wall_metrics"].items()):
            print(f"  wall-time {name:<22}{value:>14.6g} {units[name]}")
    for name in sorted(metrics):
        print(f"  {name:<32}{metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
