"""AST traversal utilities."""

import pytest

from repro.lang import FleetSyntaxError, UnitBuilder
from repro.lang import ast


def build_sample():
    b = UnitBuilder("s", input_width=8, output_width=8)
    r = b.reg("r", width=8)
    m = b.bram("m", elements=16, width=8)
    with b.when(r == 0):
        with b.while_(r != 5):
            r.set(r + 1)
    b.emit(m[b.input.bits(3, 0)])
    return b.finish()


def test_walk_statements_covers_nesting():
    unit = build_sample()
    statements = list(ast.walk_statements(unit.body))
    kinds = [type(s).__name__ for s in statements]
    assert "If" in kinds and "While" in kinds
    assert "RegAssign" in kinds and "Emit" in kinds


def test_statement_exprs_for_each_kind():
    unit = build_sample()
    for stmt in ast.walk_statements(unit.body):
        exprs = ast.statement_exprs(stmt)
        assert isinstance(exprs, tuple)
        for expr in exprs:
            assert isinstance(expr, ast.Node)


def test_contains_bram_read_through_wires():
    b = UnitBuilder("w", input_width=8, output_width=8)
    m = b.bram("m", elements=4, width=8)
    wired = b.wire(m[0] + 1)
    assert ast.contains_bram_read(wired.node)
    plain = b.wire(b.input + 1)
    assert not ast.contains_bram_read(plain.node)


def test_walk_expr_visits_shared_nodes_once():
    b = UnitBuilder("d", input_width=8, output_width=8)
    shared = b.wire(b.input + 1)
    expr = (shared + shared).node
    visited = list(ast.walk_expr(expr))
    wire_reads = [n for n in visited if isinstance(n, ast.WireRead)]
    assert len(wire_reads) == 1  # DAG-aware: each node once


def test_concat_of_nothing_rejected():
    with pytest.raises(FleetSyntaxError):
        ast.Concat([])


def test_decl_reprs_are_informative():
    unit = build_sample()
    assert "r" in repr(unit.regs[0])
    assert "m" in repr(unit.brams[0])
    assert "elements=16" in repr(unit.brams[0])


def test_built_programs_are_immutable():
    import copy

    unit = build_sample()
    when, emit = unit.body
    loop = when.arms[0][1][0]
    writes = [
        (unit, "body", ()),
        (unit, "name", "other"),
        (emit, "value", ast.Const(0, 8)),
        (emit.value, "width", 4),
        (unit.regs[0], "init", 1),
        (unit.brams[0], "elements", 8),
        (when, "arms", ()),
        (loop, "body", ()),
    ]
    for target, field, value in writes:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(target, field, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(target, field)
    # Nested blocks are tuples: neither appendable nor assignable.
    with pytest.raises(TypeError):
        when.arms[0][1][0] = emit
    with pytest.raises(TypeError):
        loop.body[0] = emit
    # A copy of an immutable value is the value itself.
    assert copy.copy(unit) is unit and copy.deepcopy(unit) is unit


def test_hand_built_programs_are_frozen_too():
    # Statements given lists freeze them: a later edit of the list does
    # not reach the program.
    reg = ast.RegDecl("r", 8)
    inner = [ast.RegAssign(reg, ast.Const(1, 8))]
    cond = ast.BinOp("eq", ast.RegRead(reg), ast.Const(0, 8))
    unit = ast.UnitProgram("h", 8, 8, [reg], [], [], [ast.If([(cond, inner)])])
    inner.append(ast.RegAssign(reg, ast.Const(2, 8)))
    assert len(unit.body[0].arms[0][1]) == 1
    assert isinstance(unit.body, tuple) and isinstance(unit.regs, tuple)
