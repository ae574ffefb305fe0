"""The block executors against the per-instruction reference
(``reference.py``): identical outputs, steps, warp issues, lane steps,
opcode histograms with key order, divergence factors, and the same
exception type on limit overruns and lane-memory faults."""

import random

import pytest

from repro.bench.catalog import catalog
from repro.isa import ProgramBuilder, ScalarExecutor, SimtExecutor
from repro.lang import FleetSimulationError

from .reference import run_scalar, run_simt

SPECS = catalog()


def _outcome(run):
    try:
        return run()
    except FleetSimulationError as exc:
        return type(exc)


def scalar_view(result):
    if isinstance(result, type):
        return result
    return (result.outputs, result.steps, list(result.op_counts.items()))


def simt_view(result):
    if isinstance(result, type):
        return result
    return (result.outputs, result.warp_issues, result.lane_steps,
            list(result.op_counts.items()), result.divergence_factor)


def check_scalar(program, tokens, max_steps=500_000_000):
    expected = _outcome(lambda: run_scalar(program, tokens,
                                           max_steps=max_steps))
    got = _outcome(lambda: ScalarExecutor(
        program, max_steps=max_steps).run(tokens))
    assert scalar_view(got) == scalar_view(expected)
    return expected


def check_simt(program, streams, max_issues=500_000_000):
    expected = _outcome(lambda: run_simt(program, streams,
                                         max_issues=max_issues))
    got = _outcome(lambda: SimtExecutor(
        program, max_issues=max_issues).run(streams))
    assert simt_view(got) == simt_view(expected)
    return expected


# -- the six ISA apps ----------------------------------------------------------


@pytest.mark.parametrize("key", list(SPECS))
def test_app_scalar_streams(key):
    spec = SPECS[key]
    program = spec.program()
    for small, large in spec.stream_pairs(small=100, large=300):
        check_scalar(program, small)
        check_scalar(program, large)


@pytest.mark.parametrize("key", list(SPECS))
def test_app_warps(key):
    """8 lanes (both warps of the pair and the identical-data warp) and
    32 lanes (the small warp), at small sizes: the reference pays Python
    dispatch per lane per instruction."""
    spec = SPECS[key]
    program = spec.program()
    (small, large), = spec.gpu_warp_pairs(lanes=8, small=40, large=100)[:1]
    check_simt(program, small)
    check_simt(program, large)
    identical = check_simt(program, [large[0]] * 8)
    assert identical.divergence_factor == 1.0
    (wide, _), = spec.gpu_warp_pairs(lanes=32, small=40, large=100)[:1]
    check_simt(program, wide)


# -- seeded random programs ---------------------------------------------------

LOCAL_WORDS = 16
REGS = ("a", "b", "c", "d")


def random_program(rnd):
    """Random code, usually inside a token loop: forward and backward
    branches, loads and stores (a few of them out of range), ``intok``
    EOF jumps, ``halt``, and labels at the end, so that some paths fall
    off the program."""
    p = ProgramBuilder(f"rand{rnd.random():.6f}", local_words=LOCAL_WORDS)
    looped = rnd.random() < 0.7
    length = rnd.randint(1, 30)
    labels = [f"L{i}" for i in range(rnd.randint(1, 4))]
    places = {}
    for label in labels:
        places.setdefault(rnd.randint(0, length), []).append(label)
    if looped:
        labels += ["top", "eof"]
        p.label("top")
        p.intok(rnd.choice(REGS), "eof")

    def val():
        if rnd.random() < 0.6:
            return rnd.choice(REGS)
        return rnd.choice((0, 1, 2, 7, rnd.randrange(1 << 64)))

    def address(base):
        """A masked base register and an offset, in range but for about
        one access in twenty."""
        if rnd.random() < 0.05:
            return base, rnd.randrange(LOCAL_WORDS + 4)
        p.and_("addr", base, 7)
        return "addr", rnd.randrange(LOCAL_WORDS - 7)

    for pc in range(length + 1):
        for label in places.get(pc, ()):
            p.label(label)
        if pc == length:
            break
        kind = rnd.choices(
            ("li", "mov", "bin", "load", "store", "br", "brnz", "brz",
             "intok", "outtok", "halt"),
            weights=(2, 1, 6, 2, 2, 1, 3, 3, 3, 3, 1),
        )[0]
        if kind == "li":
            p.li(rnd.choice(REGS), rnd.choice((0, 1, rnd.randrange(1 << 64))))
        elif kind == "mov":
            p.mov(rnd.choice(REGS), rnd.choice(REGS))
        elif kind == "bin":
            alu = rnd.choice(("add", "sub", "mul", "and", "or", "xor",
                              "shl", "shr", "eq", "ne", "lt", "le", "gt",
                              "ge", "blen"))
            p.bin(alu, rnd.choice(REGS), val(), val())
        elif kind == "load":
            base, off = address(rnd.choice(REGS))
            p.load(rnd.choice(REGS), base, off)
        elif kind == "store":
            base, off = address(rnd.choice(REGS))
            p.store(val(), base, off)
        elif kind == "br":
            p.br(rnd.choice(labels))
        elif kind == "brnz":
            p.brnz(val(), rnd.choice(labels))
        elif kind == "brz":
            p.brz(val(), rnd.choice(labels))
        elif kind == "intok":
            p.intok(rnd.choice(REGS), rnd.choice(labels))
        elif kind == "outtok":
            p.outtok(val())
        else:
            p.halt()
    if looped:
        p.br("top")
        p.label("eof")
        p.outtok(rnd.choice(REGS))
    return p.assemble()


def random_stream(rnd):
    return [rnd.choice((0, 1, 2, rnd.randrange(256)))
            for _ in range(rnd.randint(0, 24))]


@pytest.mark.parametrize("seed", range(8))
def test_random_programs(seed):
    rnd = random.Random(seed)
    raised = set()
    diverged = set()
    for _ in range(60):
        program = random_program(rnd)
        for _ in range(3):
            result = check_scalar(program, random_stream(rnd),
                                  max_steps=1_000)
            raised.add(result is FleetSimulationError)
        lanes = rnd.choice((1, 2, 5, 8, 32))
        streams = [random_stream(rnd) for _ in range(lanes)]
        if rnd.random() < 0.3:
            streams = [streams[0]] * lanes
        result = check_simt(program, streams, max_issues=1_500)
        if result is not FleetSimulationError:
            diverged.add(result.divergence_factor > 1.0)
    # Each seed reaches normal ends and errors, converged and diverged
    # warps.
    assert raised == diverged == {False, True}
