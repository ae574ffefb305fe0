"""The memoized certification analysis against the plain algorithm
(``reference.py``): the same register and vector-register intervals,
site reachability, specialization facts, cost facts and certificate for
every served and catalog app and for seeded fuzz programs."""

import random

import pytest

from repro.lang.errors import FleetError
from repro.lint import build_facts, certify_program, lint_program
from repro.lint.units import APP_UNIT_BUILDERS
from repro.serve import catalog_apps
from repro.serve.server import default_apps
from repro.testing import generator
from repro.testing import spec as spec_mod

from .reference import plain

#: Seeded fuzz programs compared per run.
FUZZ_PROGRAMS = 200


def outcome(program):
    """Everything certification derives from ``program``."""
    report = lint_program(program)
    certificate = certify_program(program, report)
    analysis = report.analysis
    facts = build_facts(analysis)
    return {
        "regs": [analysis.reg_interval(r) for r in program.regs],
        "vregs": [analysis.vreg_interval(v) for v in program.vregs],
        "reachable": [(site.location, site.kind, analysis.reachable(site))
                      for site in analysis.sites],
        "expr_bounds": facts.expr_bounds,
        "site_bounds": facts.site_bounds,
        "cost": report.cost.to_json(),
        "certificate": certificate.to_json(),
        "findings": [f.to_json() for f in report.findings],
    }


def assert_matches_plain(program):
    memoized = outcome(program)
    with plain():
        expected = outcome(program)
    for field, value in expected.items():
        assert memoized[field] == value, f"{program.name}: {field} differs"


APPS = {
    **{f"unit/{name}": build for name, build in APP_UNIT_BUILDERS.items()},
    **{f"served/{name}": app.unit_factory
       for name, app in {**default_apps(), **catalog_apps()}.items()},
}


@pytest.mark.parametrize("name", sorted(APPS))
def test_apps_match_plain_analysis(name):
    assert_matches_plain(APPS[name]())


def fuzz_programs(count, seed):
    rng = random.Random(seed)
    built = 0
    while built < count:
        spec = generator.generate_spec(rng, name=f"fuzz_{built}")
        try:
            program = spec_mod.build_unit(spec)
        except FleetError:
            continue
        built += 1
        yield program


def test_fuzz_programs_match_plain_analysis():
    for program in fuzz_programs(FUZZ_PROGRAMS, seed=7):
        assert_matches_plain(program)

