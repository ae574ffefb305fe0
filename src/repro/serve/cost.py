"""Predicted virtual-cycle cost of a stream — the packer's skew signal.

The compiler guarantees one virtual cycle per real cycle (paper
Section 4), so a stream's functional-simulator virtual-cycle count *is*
its device occupancy in cycles. Simulating a stream just to schedule it
would defeat the point, so the cost model calibrates a per-app linear
model ``cost(L) = per_token * L + fixed`` from two short sample streams
run once through the cached engine (header included, so header cost
lands in ``fixed``). For token-linear units (identity, sink, coding,
search) the fit is exact; for data-dependent units it is the standard
LPT heuristic input — packing quality degrades gracefully with
prediction error, correctness never depends on it.

Calibration is deterministic (seeded LCG sample bytes, fixed lengths)
and cached on the app's cache entry, so every run predicts identical
costs — a prerequisite for the serving determinism contract.

The fit is the one predictor. The restriction certificate also carries
a sound per-token vcycle bound (:mod:`repro.lint.cost`), but a worst
case is a poor packing signal. On the served catalog the bound is 513
vcycles per token for bloom_filter and 145 for integer_coding, against
calibrated costs of 1.0 and 2.52. Packing and placing by those bounds
made the 2-device makespan of perfbench's serve_bulk traffic 20% and
16% longer (seeds 1 and 2). The two agree only where a unit spends
exactly its bound on every token, as identity does. Certified bounds
stay where soundness is the point: the fuzzer's cost-soundness axis
and DSE's certified p99.
"""

#: Calibration sample payload lengths (bytes).
SMALL, LARGE = 96, 288


def sample_bytes(length, seed=0x5EED):
    """Deterministic pseudo-random calibration payload (seeded LCG; no
    RNG dependency, same generator family as ``repro.report``)."""
    data = bytearray()
    state = (seed ^ length) & 0xFFFFFFFF
    for _ in range(length):
        state = (1103515245 * state + 12345) & 0xFFFFFFFF
        data.append((state >> 16) & 0xFF)
    return bytes(data)


class CostModel:
    """Per-app linear virtual-cycle predictors over one app cache."""

    def __init__(self, cache):
        self.cache = cache
        # Per-model memo over the entry-resident coefficients: predict()
        # runs once per stream per window, so it must not pay the cache
        # lock + entry lookup every call.
        self._coeffs = {}

    def _calibrate(self, entry):
        header = list(entry.app.header)

        def measure(length):
            sim = self.cache.simulator(entry.app.name)
            sim.run(header + list(sample_bytes(length)))
            return sim.trace.total_vcycles

        small = measure(SMALL)
        large = measure(LARGE)
        per_token = max(0.0, (large - small) / (LARGE - SMALL))
        fixed = max(1.0, small - per_token * SMALL)
        return per_token, fixed

    def coefficients(self, name):
        """The app's ``(per_token, fixed)`` pair, calibrating once."""
        coeffs = self._coeffs.get(name)
        if coeffs is not None:
            return coeffs
        entry = self.cache.entry(name)
        with entry.lock:
            if entry.cost_coeffs is None:
                entry.cost_coeffs = self._calibrate(entry)
        self._coeffs[name] = entry.cost_coeffs
        return entry.cost_coeffs

    def predict(self, name, stream):
        """Predicted virtual cycles for one stream of ``name``."""
        per_token, fixed = self.coefficients(name)
        return per_token * len(stream) + fixed
