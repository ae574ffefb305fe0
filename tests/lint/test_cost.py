"""Cost & termination analysis: golden bounds for every app unit,
serialization round-trips, bound checking, and measured-run soundness."""

import random

import pytest

from repro.interp import make_simulator
from repro.lint import build_cost, certify_program
from repro.lint.cost import CostFacts
from repro.lint.engine import Analysis
from repro.lint.units import APP_UNIT_BUILDERS, build_app_unit

#: Golden certified per-token cost intervals for every application unit
#: at its golden-test parameters: (token vcycles, token emits,
#: cleanup vcycles, cleanup emits), each a (lo, hi) pair with hi=None
#: meaning no finite bound. decision_tree is *genuinely* unbounded — its
#: BRAM-pointer walk has no depth counter, so an adversarial cyclic tree
#: image never terminates; the correct verdict is a NonterminationRisk
#: warning, not a bound.
GOLDEN_COST = {
    "block_frequencies": ((1, 257), (0, 256), (1, 257), (0, 256)),
    "bloom_filter": ((1, 513), (0, 2048), (1, 513), (0, 2048)),
    "csv_extract": ((1, 1), (0, 10), (1, 1), (0, 0)),
    "decision_tree": ((1, None), (0, None), (1, None), (0, None)),
    "identity": ((1, 1), (1, 1), (1, 1), (0, 0)),
    "int_coding": ((1, 145), (0, 1008), (1, 145), (0, 1008)),
    "json_field": ((1, 1), (0, 9), (1, 1), (0, 0)),
    "regex_match": ((1, 1), (0, 1), (1, 1), (0, 0)),
    "sink": ((1, 1), (0, 0), (1, 1), (0, 0)),
    "smith_waterman": ((1, 1), (0, 1), (1, 1), (0, 0)),
    "string_search": ((1, 1), (0, 1), (1, 1), (0, 0)),
}

#: Units whose unbounded verdict is reviewed and accepted (the CI
#: `lint --cost --all-apps` gate allows exactly these).
NONTERMINATION_ALLOWLIST = frozenset({"decision_tree"})


def cost_for(name):
    return build_cost(Analysis(build_app_unit(name)))


def test_golden_table_covers_all_units():
    assert sorted(GOLDEN_COST) == sorted(APP_UNIT_BUILDERS)


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_golden_cost_bounds(name):
    cost = cost_for(name)
    assert (cost.token.vcycles, cost.token.emits,
            cost.cleanup.vcycles, cost.cleanup.emits) == GOLDEN_COST[name]


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_termination_verdicts(name):
    cost = cost_for(name)
    if name in NONTERMINATION_ALLOWLIST:
        assert not cost.terminates
        assert cost.unbounded_loops
    else:
        assert cost.terminates
        assert not cost.unbounded_loops


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_certificates_carry_cost(name):
    certificate = certify_program(build_app_unit(name))
    assert certificate.cost is not None
    assert certificate.cost.token.vcycles == GOLDEN_COST[name][0]
    # The cost facts survive into the JSON payload and the render.
    payload = certificate.to_json()
    assert payload["cost"]["token"]["vcycles"] == \
        list(GOLDEN_COST[name][0])
    assert "vcycles/token" in certificate.render()


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_cost_json_round_trip(name):
    cost = cost_for(name)
    clone = CostFacts.from_json(cost.to_json())
    assert clone.token.vcycles == cost.token.vcycles
    assert clone.token.emits == cost.token.emits
    assert clone.cleanup.vcycles == cost.cleanup.vcycles
    assert clone.cleanup.emits == cost.cleanup.emits
    assert clone.terminates == cost.terminates
    assert ([l.location for l in clone.unbounded_loops]
            == [l.location for l in cost.unbounded_loops])


def _two_loops(reset):
    """Two loops, the second starting once the first is done; with
    ``reset`` the second also writes the first loop's counter."""
    from repro.lang import UnitBuilder

    b = UnitBuilder("two_loops", input_width=8, output_width=8)
    i = b.reg("i", width=3, init=0)
    j = b.reg("j", width=3, init=0)
    with b.while_(i < 2):
        b.emit(i)
        i.set(i + 1)
    with b.while_((j < 5) & (i == 2)):
        b.emit(j)
        j.set(j + 1)
        if reset:
            i.set(0)
    return b.finish()


def test_each_loop_bounds_its_own_body():
    # An emit counts the trips of the loop whose body holds it, and a
    # counter another loop's body writes gives no bound.
    cost = build_cost(Analysis(_two_loops(reset=False)))
    assert [loop.trips for loop in cost.token.loops] == [2, 5]
    assert cost.token.emits == (0, 2 + 5)
    cost = build_cost(Analysis(_two_loops(reset=True)))
    assert [loop.trips for loop in cost.token.loops] == [None, 5]


def test_check_token_flags_violations():
    cost = cost_for("identity")  # exact (1, 1) vcycles and emits
    assert cost.check_token(1, 1) == []
    assert any("vcycles" in v for v in cost.check_token(2, 1))
    assert any("emits" in v for v in cost.check_token(1, 0))
    # Cleanup phase has its own interval (identity emits nothing there).
    assert cost.check_token(1, 0, cleanup=True) == []
    assert any("emits" in v for v in cost.check_token(1, 1, cleanup=True))


def test_check_token_skips_upper_when_unbounded():
    cost = cost_for("decision_tree")
    # No finite upper bound: arbitrarily expensive tokens are in bounds,
    # but the certified lower bound still applies.
    assert cost.check_token(10_000, 500) == []
    assert any("vcycles" in v for v in cost.check_token(0, 0))


@pytest.mark.parametrize("name", sorted(set(APP_UNIT_BUILDERS)
                                        - NONTERMINATION_ALLOWLIST))
def test_measured_runs_inside_certified_interval(name):
    """Every measured (vcycles, emits) record of real interpreter runs
    on random input lands inside the certified interval — the
    cost-soundness property the differential fuzzer checks on generated
    programs, replayed here on the app catalog."""
    program = build_app_unit(name)
    cost = build_cost(Analysis(program))
    rng = random.Random(1234)
    width = program.input_width
    for _trial in range(5):
        sim = make_simulator(program, engine="interp")
        tokens = [rng.randrange(1 << width)
                  for _ in range(rng.randrange(0, 24))]
        sim.run(tokens)
        trace = sim.trace
        n = len(trace.vcycles_per_token)
        for i in range(n):
            cleanup = trace._cleanup_recorded and i == n - 1
            assert cost.check_token(
                trace.vcycles_per_token[i], trace.emits_per_token[i],
                cleanup=cleanup,
            ) == []
