"""Serving-scheduler benchmark: FIFO vs skew-aware packing vs
multi-device sharding.

The workload is the serving regime the ROADMAP targets: many
independent jobs whose stream lengths follow a bounded Zipf/Pareto tail
(:func:`repro.serve.workload.zipf_lengths`) — record splitting in the
wild produces exactly this skew. Three configurations process the
byte-identical stream set end-to-end through :class:`repro.serve.
FleetServer`:

1. one device, naive FIFO packing (the paper-runtime baseline: a batch
   finishes when its longest stream does);
2. one device, skew-aware (LPT) packing;
3. two devices, skew-aware packing.

The numbers the CI floor watches: ``packing_speedup`` (1 -> 2, must stay
>= 1.5x) and ``sharding_speedup`` (2 -> 3, must stay >= 1.8x), both in
deterministic virtual-cycle makespan. Results land in the ``serve``
section of ``BENCH_PERF.json``.
"""

import random

#: CI floors (asserted by the benchmark and by run_serve_comparison
#: consumers).
PACKING_FLOOR = 1.5
SHARDING_FLOOR = 1.8


def _serve_makespan(streams, *, devices, packer, slots):
    from ..serve import FleetServer, ServeConfig

    config = ServeConfig(
        devices=devices, pu_slots=slots, packer=packer,
        window_streams=len(streams) + 1,  # one window: pack globally
        max_pending_streams=1 << 30,
    )
    with FleetServer(config=config) as server:
        for index, stream in enumerate(streams):
            server.submit(
                "identity", [stream], tenant=f"tenant{index % 4}"
            )
        server.drain()
        report = server.report()
    totals = report["totals"]
    return totals["makespan"], totals["device_vcycles"]


def run_serve_comparison(quick=False, seed=20260806, slots=8):
    """Run the three configurations over one seeded Zipf workload;
    returns the ``serve`` results dict (see module docstring)."""
    from ..serve.workload import make_streams, zipf_lengths

    n, lo, hi, alpha = (
        (160, 32, 1500, 1.2) if quick else (600, 32, 3000, 1.2)
    )
    rnd = random.Random(seed)
    streams = make_streams(
        rnd, zipf_lengths(rnd, n, alpha=alpha, lo=lo, hi=hi)
    )
    fifo_1dev, work = _serve_makespan(
        streams, devices=1, packer="fifo", slots=slots
    )
    skew_1dev, _ = _serve_makespan(
        streams, devices=1, packer="skew", slots=slots
    )
    skew_2dev, _ = _serve_makespan(
        streams, devices=2, packer="skew", slots=slots
    )
    packing = fifo_1dev / skew_1dev if skew_1dev else 0.0
    sharding = skew_1dev / skew_2dev if skew_2dev else 0.0
    return {
        "workload": {
            "streams": n, "alpha": alpha, "min_bytes": lo,
            "max_bytes": hi, "seed": seed, "pu_slots": slots,
            "device_vcycles": work,
        },
        "fifo_1dev_makespan": fifo_1dev,
        "skew_1dev_makespan": skew_1dev,
        "skew_2dev_makespan": skew_2dev,
        "packing_speedup": packing,
        "sharding_speedup": sharding,
        "floors": {
            "packing": PACKING_FLOOR, "sharding": SHARDING_FLOOR,
        },
        "pass": packing >= PACKING_FLOOR and sharding >= SHARDING_FLOOR,
    }


def format_serve_comparison(serve):
    """Render the serve comparison as a table."""
    wl = serve["workload"]
    lines = [
        f"serve scheduler: {wl['streams']} Zipf(alpha={wl['alpha']}) "
        f"streams, {wl['pu_slots']} PU slots/device "
        f"(makespans in virtual cycles)",
        f"{'configuration':<30}{'makespan':>12}{'speedup':>10}"
        f"{'floor':>8}",
        "-" * 60,
        f"{'1 device, FIFO packing':<30}"
        f"{serve['fifo_1dev_makespan']:>12}{'1.0x':>10}{'-':>8}",
        f"{'1 device, skew-aware (LPT)':<30}"
        f"{serve['skew_1dev_makespan']:>12}"
        f"{serve['packing_speedup']:>9.2f}x"
        f"{serve['floors']['packing']:>7.1f}x",
        f"{'2 devices, skew-aware (LPT)':<30}"
        f"{serve['skew_2dev_makespan']:>12}"
        f"{serve['sharding_speedup']:>9.2f}x"
        f"{serve['floors']['sharding']:>7.1f}x",
    ]
    lines.append(
        "packing speedup = FIFO/skew on 1 device; sharding speedup = "
        "skew 1 device / skew 2 devices"
    )
    return "\n".join(lines)
