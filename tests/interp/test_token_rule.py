"""One token rule for every engine.

A token is an integer in Python's index sense (``int``, ``bool``, a
NumPy integer — never a float) within the declared input width, and it
runs as a plain ``int``. Every engine — the interpreter, the certified
compiled engine (whole stream and token at a time), and both batch
tiers — accepts and rejects the same tokens with the same message, and
emits outputs equal in value and in type.
"""

import pytest

from repro.apps import identity_unit
from repro.interp import (
    UnitSimulator,
    cc_available,
    compile_batch,
    make_simulator,
    numpy_available,
    run_batch_streams,
)
from repro.lang.errors import FleetSimulationError

try:
    import numpy as np
except ImportError:  # the NumPy cases skip
    np = None


def _interp(program, tokens):
    return UnitSimulator(program, engine="interp").run(tokens)


def _compiled_run(program, tokens):
    return make_simulator(program, engine="compiled-certified").run(tokens)


def _compiled_tokens(program, tokens):
    sim = make_simulator(program, engine="compiled-certified")
    outputs = []
    for token in tokens:
        outputs += sim.process_token(token)
    return outputs + sim.finish_stream()


def _batch(backend):
    def run(program, tokens):
        unit = compile_batch(program, backend=backend)
        return run_batch_streams(program, [tokens], unit=unit).outputs[0]
    return run


ENGINES = [
    ("interp", _interp),
    ("compiled-certified-run", _compiled_run),
    ("compiled-certified-process_token", _compiled_tokens),
]
if numpy_available():
    ENGINES.append(("batch-numpy", _batch("numpy")))
    if cc_available():
        ENGINES.append(("batch-cc", _batch("cc")))

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
        outputs = run(program, tokens)
    except FleetSimulationError as exc:
        return ("rejected", str(exc))
    return ("accepted", outputs, [type(value) for value in outputs])


@pytest.mark.parametrize("token,expected", CASES,
                         ids=[str(token) for token, _ in CASES])
@pytest.mark.parametrize("name,run", ENGINES,
                         ids=[name for name, _ in ENGINES])
def test_engines_share_one_token_rule(name, run, token, expected):
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
