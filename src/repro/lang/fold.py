"""Constant folding over Fleet expressions.

:func:`const_value` evaluates an expression to a concrete unsigned
integer when every leaf is a constant, and returns ``None`` otherwise.
It reuses the operator tables in :mod:`repro.ops` so folding matches the
simulators bit for bit (width-masked wrap-around included).

Consumers: the restriction prover decomposes constant-folded guard
conditions into facts (``Const(3) < Const(5)`` contributes the same
knowledge as a literal ``1``), and the lint passes use folding both to
seed the interval domain and to flag constant conditions.
"""

from . import ast
from .types import mask


def const_value(node, memo=None):
    """The constant value of ``node``, or ``None`` when not constant.

    ``memo`` is an ``id(node) -> fold`` dict a caller may share across
    calls, so a node shared by many expressions folds once. Nodes are
    immutable, so a memo stays exact for as long as every node it has
    seen is alive (ids are only unique among live objects).
    """
    return _fold(node, {} if memo is None else memo)


def _fold(node, memo):
    cached = memo.get(id(node))
    if cached is not None:
        return cached if cached is not _NONCONST else None
    value = _fold_uncached(node, memo)
    memo[id(node)] = _NONCONST if value is None else value
    return value


class _NonConst:
    __slots__ = ()


_NONCONST = _NonConst()


def _fold_uncached(node, memo):
    from .. import ops

    if isinstance(node, ast.Const):
        return node.value
    if isinstance(node, ast.WireRead):
        return _fold(node.wire.value, memo)
    if isinstance(node, ast.BinOp):
        lhs = _fold(node.lhs, memo)
        rhs = _fold(node.rhs, memo)
        if lhs is None or rhs is None:
            return None
        return ops.eval_binop(node.op, lhs, rhs,
                              node.lhs.width, node.rhs.width)
    if isinstance(node, ast.UnOp):
        operand = _fold(node.operand, memo)
        if operand is None:
            return None
        return ops.eval_unop(node.op, operand, node.operand.width)
    if isinstance(node, ast.Mux):
        cond = _fold(node.cond, memo)
        if cond is None:
            return None
        return _fold(node.then if cond else node.els, memo)
    if isinstance(node, ast.Slice):
        operand = _fold(node.operand, memo)
        if operand is None:
            return None
        return (operand >> node.lo) & mask(node.width)
    if isinstance(node, ast.Concat):
        value = 0
        for part in node.parts:
            folded = _fold(part, memo)
            if folded is None:
                return None
            value = (value << part.width) | folded
        return value
    # Leaves that read state or input are never constant.
    return None
