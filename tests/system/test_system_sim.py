"""Full-system estimation: profiles, throughput composition, power."""

import pytest

from repro.apps import identity_unit, regex_match_unit, sink_unit
from repro.bench.workloads import email_text, rng
from repro.system import (
    DRAM_WATTS,
    evaluate_fleet_app,
    fpga_package_watts,
    perf_per_watt,
    profile_unit,
)
from repro.system.system_sim import profile_unit_marginal


class TestProfiles:
    def test_identity_profile(self):
        profile = profile_unit(identity_unit(), list(range(100)))
        assert profile.vcycles_per_token == pytest.approx(1.01, abs=0.01)
        assert profile.output_ratio == pytest.approx(1.0)

    def test_sink_profile_no_output(self):
        profile = profile_unit(sink_unit(), list(range(50)))
        assert profile.output_ratio == 0.0

    def test_profile_counts_its_engine(self, monkeypatch):
        # The profiler picks its engine through make_simulator, so the
        # choice shows up in fleet_interp_engine_selected_total.
        from repro.interp.compile import _ENGINE_SELECTED
        from repro.telemetry.metrics import enabled_scope

        def selected():
            return {labels[0]: child.value
                    for labels, child in _ENGINE_SELECTED.samples()}

        with enabled_scope():
            before = selected()
            profile_unit(identity_unit(), list(range(20)))
            monkeypatch.setenv("FLEET_ENGINE", "interp")
            profile_unit(identity_unit(), list(range(20)))
            after = selected()
        for engine in ("compiled-certified", "interp"):
            assert after.get(engine, 0) - before.get(engine, 0) == 1

    def test_marginal_profile_amortizes_header(self):
        # Smith-Waterman's header is tiny; use an artificial contrast:
        # the histogram flush makes absolute vcpt block-dependent.
        from repro.apps import block_frequencies_unit

        unit = block_frequencies_unit(block_size=10)
        small = [1] * 20
        large = [1] * 120
        marginal = profile_unit_marginal(unit, small, large)
        # steady state: 1 + 256/10 flush cycles per token
        assert marginal.vcycles_per_token == pytest.approx(
            1 + 25.6, rel=0.05
        )

    def test_marginal_requires_growth(self):
        unit = identity_unit()
        with pytest.raises(ValueError):
            profile_unit_marginal(unit, [1, 2, 3], [1, 2])


class TestEvaluation:
    def test_regex_app_reaches_memory_bound(self):
        rnd = rng(1)
        result = evaluate_fleet_app(
            "regex", regex_match_unit(), [email_text(rnd, 2500)],
            sim_cycles=10_000,
        )
        assert result.pu_count == 704
        assert result.theoretical_gbps == pytest.approx(88.0, rel=0.01)
        assert 20 < result.gbps < 30  # memory-bound near 27 GB/s
        assert result.perf_per_watt > result.perf_per_watt_dram

    def test_explicit_pu_count_honored(self):
        rnd = rng(2)
        result = evaluate_fleet_app(
            "regex", regex_match_unit(), [email_text(rnd, 2000)],
            sim_cycles=5_000, pu_count=8,
        )
        assert result.pu_count == 8
        # 8 PUs x 1 B/cycle x 125 MHz = 1 GB/s ceiling
        assert result.gbps <= result.theoretical_gbps <= 1.01


class TestPower:
    def test_package_power_scales_with_area(self):
        small = fpga_package_watts(10_000, 10_000, 10)
        large = fpga_package_watts(500_000, 500_000, 1000)
        assert large > small > 0

    def test_dram_adder(self):
        assert perf_per_watt(10, 20, False) == pytest.approx(0.5)
        assert perf_per_watt(10, 20, True) == pytest.approx(
            10 / (20 + DRAM_WATTS)
        )
