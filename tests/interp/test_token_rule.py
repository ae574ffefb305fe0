"""One token rule, and one value type, for every engine.

A token is an integer in Python's index sense (``int``, ``bool``, a
NumPy integer — never a float) within the declared input width, and it
runs as a plain ``int``. Every engine — the interpreter, the certified
compiled engine (whole stream and token at a time), and the batch
kernel — accepts and rejects the same tokens with the same message, and
emits outputs and keeps register values equal in value and in type:
a comparison emitted or stored is ``1`` or ``0``, never ``True`` or
``False``.
"""

import pytest

from repro.apps import identity_unit
from repro.interp import (
    UnitSimulator,
    compile_batch,
    make_simulator,
    run_batch_streams,
)
from repro.lang import UnitBuilder
from repro.lang.errors import FleetSimulationError

try:
    import numpy as np
except ImportError:  # the NumPy cases skip
    np = None


def _interp(program, tokens):
    sim = UnitSimulator(program, engine="interp")
    return sim.run(tokens), sim.peek_reg


def _compiled_run(program, tokens):
    sim = make_simulator(program, engine="compiled-certified")
    return sim.run(tokens), sim.peek_reg


def _compiled_tokens(program, tokens):
    sim = make_simulator(program, engine="compiled-certified")
    outputs = []
    for token in tokens:
        outputs += sim.process_token(token)
    return outputs + sim.finish_stream(), sim.peek_reg


def _batch(program, tokens):
    unit = compile_batch(program)
    result = run_batch_streams(program, [tokens], unit=unit)
    return result.outputs[0], lambda name: result.peek_reg(0, name)


ENGINES = [
    pytest.param(_interp, id="interp"),
    pytest.param(_compiled_run, id="compiled-certified-run"),
    pytest.param(_compiled_tokens, id="compiled-certified-process_token"),
    pytest.param(_batch, id="batch-cc", marks=pytest.mark.needs_kernel),
]

#: (token, expected outputs or None when the token is rejected)
CASES = [
    (1.5, None),
    (2.0, None),
    (True, [1]),
    ("uint8(7)", [7]),
    (-1, None),
    (256, None),
]


def _outcome(run, program, tokens):
    try:
        outputs, _peek = run(program, tokens)
    except FleetSimulationError as exc:
        return ("rejected", str(exc))
    return ("accepted", outputs, [type(value) for value in outputs])


@pytest.mark.parametrize("token,expected", CASES,
                         ids=[str(token) for token, _ in CASES])
@pytest.mark.parametrize("run", ENGINES)
def test_engines_share_one_token_rule(run, token, expected):
    if token == "uint8(7)":
        if np is None:
            pytest.skip("numpy unavailable")
        token = np.uint8(7)
    program = identity_unit()
    got = _outcome(run, program, [token])
    if expected is None:
        assert got == ("rejected", f"token {token!r} does not fit the "
                       "declared 8-bit input width")
    else:
        assert got == ("accepted", expected, [int] * len(expected))


def _comparison_unit():
    b = UnitBuilder("comparisons", input_width=8, output_width=8)
    flag = b.reg("flag", width=1, init=0)
    b.emit(b.input < 5)
    flag.set(b.input == 3)
    return b.finish()


@pytest.mark.parametrize("run", ENGINES)
def test_engines_emit_and_store_comparisons_as_ints(run):
    outputs, peek_reg = run(_comparison_unit(), [1, 3, 9])
    # The cleanup cycle reads the token as 0: one more `0 < 5`.
    assert outputs == [1, 1, 0, 1]
    assert [type(value) for value in outputs] == [int] * 4
    flag = peek_reg("flag")
    assert flag == 0 and type(flag) is int
