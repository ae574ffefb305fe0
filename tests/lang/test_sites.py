"""The shared site list (``UnitProgram.sites``) against the guard rule's
own walk (``reference.py``), and the one-walk-per-program budget."""

import collections
import os
import random
import sys

import pytest

from repro.compiler import compile_unit
from repro.lang import ast
from repro.lang.errors import FleetError
from repro.lint import certificate_for
from repro.lint.units import APP_UNIT_BUILDERS
from repro.serve import catalog_apps
from repro.serve.server import default_apps
from repro.testing import corpus, generator
from repro.testing import spec as spec_mod

from . import reference

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")

#: Seeded generated programs compared per run.
FUZZ_PROGRAMS = 200


def _entry(terms, needs_while_done, in_loop, loop, payload):
    """An access, comparable by identity: guard terms as
    ``(id(cond), polarity)``, the enclosing ``while`` statement and the
    payload expressions as ids."""
    return (tuple((id(cond), polarity) for cond, polarity in terms),
            needs_while_done, in_loop, id(loop),
            tuple(id(e) for e in payload))


def _ref(accesses):
    return [_entry(a.terms, a.needs_while_done, a.in_loop, a.loop,
                   a.payload)
            for a in accesses]


def _loop_stmt(site):
    return None if site.loop is None else site.loop.stmt


def _sites(sites, payload):
    return [_entry(s.guard, s.needs_while_done, s.in_loop, _loop_stmt(s),
                   payload(s))
            for s in sites]


def reference_groups(program):
    col = reference.collect(program)
    return {
        "loops": _ref(col.loops),
        "reads": {b: _ref(a) for b, a in col.bram_reads.items()},
        "writes": {b: _ref(a) for b, a in col.bram_writes.items()},
        "reg_assigns": {r: _ref(a) for r, a in col.reg_assigns.items()},
        "vreg_assigns": {v: _ref(a) for v, a in col.vreg_assigns.items()},
        "emits": _ref(col.emits),
    }


def site_groups(program):
    sites = program.sites
    # A loop's access is its loop guard, the guard of its body.
    loops = [_entry(s.loop_guard, s.needs_while_done, s.in_loop,
                    _loop_stmt(s), ())
             for s in sites.loops]
    return {
        "loops": loops,
        "reads": {b: _sites(s, lambda x: (x.node.addr,))
                  for b, s in sites.reads.items()},
        "writes": {b: _sites(s, lambda x: (x.stmt.addr, x.stmt.value))
                   for b, s in sites.writes.items()},
        "reg_assigns": {r: _sites(s, lambda x: (x.stmt.value,))
                        for r, s in sites.reg_assigns.items()},
        "vreg_assigns": {v: _sites(s, lambda x: (x.stmt.index,
                                                 x.stmt.value))
                         for v, s in sites.vreg_assigns.items()},
        "emits": _sites(sites.emits, lambda x: (x.stmt.value,)),
    }


def assert_groups_match(program):
    expected = reference_groups(program)
    got = site_groups(program)
    for group, value in expected.items():
        assert got[group] == value, f"{program.name}: {group} differs"


@pytest.mark.parametrize("name", sorted(APP_UNIT_BUILDERS))
def test_app_sites_match_reference(name):
    assert_groups_match(APP_UNIT_BUILDERS[name]())


def test_corpus_sites_match_reference():
    entries = corpus.load_dir(CORPUS_DIR)
    assert entries
    for _name, entry in entries:
        assert_groups_match(spec_mod.build_unit(entry["spec"]))


def test_generated_sites_match_reference():
    rng = random.Random(23)
    built = 0
    while built < FUZZ_PROGRAMS:
        spec = generator.generate_spec(rng, name=f"fuzz_{built}")
        try:
            program = spec_mod.build_unit(spec)
        except FleetError:
            continue
        built += 1
        assert_groups_match(program)


def test_sites_are_walked_once_and_shared():
    program = APP_UNIT_BUILDERS["bloom_filter"]()
    sites = program.sites
    assert program.sites is sites
    with pytest.raises(AttributeError):
        sites.sites[0].guard = ()


def test_site_locations_and_kinds():
    from repro.lang import UnitBuilder

    b = UnitBuilder("loc", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    r = b.reg("r", width=8)
    with b.when(r == 0):
        r.set(m[1])
    with b.otherwise():
        with b.while_(r < 3):
            r.set(r + 1)
    b.emit(r)
    program = b.finish()
    assert [(s.kind, s.location) for s in program.sites.sites] == [
        ("if-cond", "body[0].cond[0]"),
        ("arm", "body[0].arm[0]"),
        ("reg-assign", "body[0].arm[0].body[0]"),
        ("bram-read", "body[0].arm[0].body[0]"),
        ("arm", "body[0].arm[1]"),
        ("while-cond", "body[0].arm[1].body[0].cond"),
        ("reg-assign", "body[0].arm[1].body[0].body[0]"),
        ("emit", "body[1]"),
    ]
    (loop,) = program.sites.loops
    assert [p for _, p in loop.guard] == [False]
    assert [p for _, p in loop.loop_guard] == [False, True]
    # Only the assignment in the loop body links to the loop's site.
    assert [s.kind for s in program.sites.sites if s.loop is loop] == [
        "reg-assign"]
    assert loop.loop is None and not loop.in_loop
    assert program.sites.used_regs == {r.decl}
    assert not program.sites.reading_conds


#: ``ast.walk_expr`` callers that are not guard collection: the loop
#: bound analysis walks single ``while`` conditions, and
#: ``contains_bram_read`` walks read addresses.
OTHER_WALKERS = {"repro.lint.cost", "repro.lang.ast"}


def test_one_guard_walk_per_program(monkeypatch, fresh_artifacts):
    """Building, certifying and compiling the served apps walks each
    statement-expression root once for guard collection: 505 roots in
    all (the former five walks made 2,525 such calls)."""
    calls = collections.Counter()
    walk_expr = ast.walk_expr

    def counting(node):
        calls[sys._getframe(1).f_globals["__name__"]] += 1
        return walk_expr(node)

    monkeypatch.setattr(ast, "walk_expr", counting)
    roots = 0
    apps = {**default_apps(), **catalog_apps()}
    assert len(apps) == 8
    for _name, app in sorted(apps.items()):
        program = app.unit_factory()
        assert certificate_for(program).ok
        compile_unit(program)
        roots += sum(len(ast.statement_exprs(stmt))
                     for stmt in ast.walk_statements(program.body))
    guard_walks = {module: count for module, count in calls.items()
                   if module not in OTHER_WALKERS}
    assert roots == 505
    assert guard_walks == {"repro.lang.sites": roots}
