"""GPU baseline performance model (the paper's p3.2xlarge / V100).

The paper runs 225,280 threads (one stream each) in 256-thread blocks.
Our model runs representative 32-lane warps in the SIMT executor — so
control-flow divergence across streams is *measured*, not assumed — and
converts warp-level issue counts to throughput:

    GB/s = min(EFFECTIVE_WARP_GOPS * 32 / warp_ops_per_lane_byte,
               MEMORY_BW_GBPS)

``warp_ops_per_lane_byte`` is the marginal weighted warp-issue count per
byte of one lane's stream; it already contains the divergence penalty
(diverged lanes serialize their paths). Loads and stores are cheap on the
GPU (weight 0.25: registers/shared memory, the paper's explanation for
the decision tree result) while multiplies stay at 1.

``EFFECTIVE_WARP_GOPS`` — the sustained warp-instruction rate across the
V100's 80 SMs for this class of serial, token-at-a-time kernels — is
calibrated once on JSON parsing; everything else follows from measured
counts. The identical-data divergence experiments of Section 7.2 use the
same executor with the same stream replicated across lanes.
"""

from ..isa import SimtExecutor, weighted_cycles
from ..system.power import GPU_PACKAGE_WATTS, perf_per_watt

#: Sustained warp-instruction rate (weighted), calibrated on JSON parsing.
EFFECTIVE_WARP_GOPS = 43e9
#: Effective HBM2 bandwidth ceiling for per-thread streaming access.
MEMORY_BW_GBPS = 300.0

#: GPU instruction weights: local/shared memory is nearly free relative
#: to issue cost; everything else one slot.
GPU_WEIGHTS = {"load": 0.25, "store": 0.25, "mul_alu": 1.0, "default": 1.0}


class GpuAppResult:
    def __init__(self, name, gbps, warp_ops_per_byte, divergence):
        self.name = name
        self.gbps = gbps
        self.warp_ops_per_byte = warp_ops_per_byte
        self.divergence = divergence
        self.package_watts = GPU_PACKAGE_WATTS

    @property
    def perf_per_watt(self):
        return perf_per_watt(self.gbps, self.package_watts, False)

    @property
    def perf_per_watt_dram(self):
        return perf_per_watt(self.gbps, self.package_watts, True)

    def __repr__(self):
        return (
            f"GpuAppResult({self.name!r}, {self.gbps:.2f} GB/s, "
            f"divergence={self.divergence:.2f}x)"
        )


def marginal_warp_cost(program, small_warp, large_warp):
    """Weighted warp issues per lane-byte between two warp sizes (the
    streams share headers; per-lane payloads differ in length)."""
    small = SimtExecutor(program).run(small_warp)
    large = SimtExecutor(program).run(large_warp)
    d_bytes = (
        sum(len(s) for s in large_warp) - sum(len(s) for s in small_warp)
    ) / len(large_warp)
    if d_bytes <= 0:
        raise ValueError("large warp must be longer than small warp")
    d_ops = (
        weighted_cycles(large.op_counts, GPU_WEIGHTS)
        - weighted_cycles(small.op_counts, GPU_WEIGHTS)
    )
    divergence = large.divergence_factor
    return d_ops / d_bytes, divergence


def evaluate_gpu_app(name, program, warp_pairs):
    """Model a GPU baseline from (small_warp, large_warp) stream-list
    pairs; several pairs are averaged."""
    costs = []
    divergences = []
    for small_warp, large_warp in warp_pairs:
        cost, divergence = marginal_warp_cost(program, small_warp,
                                              large_warp)
        costs.append(cost)
        divergences.append(divergence)
    warp_ops_per_byte = sum(costs) / len(costs)
    divergence = sum(divergences) / len(divergences)
    gbps = min(
        EFFECTIVE_WARP_GOPS * 32 / warp_ops_per_byte / 1e9,
        MEMORY_BW_GBPS,
    )
    return GpuAppResult(name, gbps, warp_ops_per_byte, divergence)
