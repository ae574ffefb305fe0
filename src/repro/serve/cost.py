"""Predicted virtual-cycle cost of a stream — the packer's skew signal.

The compiler guarantees one virtual cycle per real cycle (paper
Section 4), so a stream's functional-simulator virtual-cycle count *is*
its device occupancy in cycles. Simulating a stream just to schedule it
would defeat the point, so the cost model calibrates a per-app linear
model ``cost(L) = per_token * L + fixed`` from two short sample streams
run once, header included, so header cost lands in ``fixed``. Every
engine counts the same virtual cycles, so an app calibrates on the
engine it serves on: an app with a kernel runs both samples as one
two-lane batch (:func:`repro.interp.batch.run_batch_streams`), any other
runs each through :func:`repro.interp.make_simulator`. For token-linear
units (identity, sink, coding, search) the fit is exact; for
data-dependent units it is the standard LPT heuristic input — packing
quality degrades gracefully with prediction error, correctness never
depends on it.

Calibration is deterministic (seeded LCG sample bytes, fixed lengths),
so every run predicts identical costs — a prerequisite for the serving
determinism contract. The coefficients depend only on the program
structure and the header, so they are kept in the structure's artifact
record (:func:`repro.lint.certificate.artifacts_for`), keyed by header:
each app calibrates once per process, however many servers serve it.

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

from ..interp import make_simulator, run_batch_streams
from ..lint.certificate import artifacts_for

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


def _stream_vcycles(program, stream):
    """Virtual cycles of one stream on ``program``'s per-stream engine."""
    sim = make_simulator(program)
    sim.run(list(stream))
    return sim.trace.total_vcycles


class CostModel:
    """Per-app linear virtual-cycle predictors over one app cache."""

    def __init__(self, cache):
        self.cache = cache
        # Per-model memo over the structure-resident coefficients:
        # predict() runs once per stream per window, so it must not pay
        # the cache lock + entry lookup every call.
        self._coeffs = {}

    def _calibrate(self, entry):
        header = entry.app.header
        samples = [header + sample_bytes(SMALL), header + sample_bytes(LARGE)]
        if entry.batch_unit is not None:
            # Both samples as one two-lane batch on the app's kernel.
            small, large = run_batch_streams(
                entry.program, samples, unit=entry.batch_unit
            ).vcycles
        else:
            small, large = (_stream_vcycles(entry.program, sample)
                            for sample in samples)
        per_token = max(0.0, (large - small) / (LARGE - SMALL))
        fixed = max(1.0, small - per_token * SMALL)
        return per_token, fixed

    def coefficients(self, name):
        """The app's ``(per_token, fixed)`` pair, calibrating once."""
        coeffs = self._coeffs.get(name)
        if coeffs is not None:
            return coeffs
        entry = self.cache.entry(name)
        calibrated = artifacts_for(entry.program).calibration
        header = entry.app.header
        with entry.lock:
            coeffs = calibrated.get(header)
            if coeffs is None:
                coeffs = calibrated[header] = self._calibrate(entry)
        self._coeffs[name] = coeffs
        return coeffs

    def predict(self, name, stream):
        """Predicted virtual cycles for one stream of ``name``."""
        per_token, fixed = self.coefficients(name)
        return per_token * len(stream) + fixed
