"""The verification workflow: every way this framework checks a unit.

Walks one custom unit — a multi-pattern log scanner built on the
Aho-Corasick substrate — through the full assurance stack:

1. construction-time static checks,
2. the static restriction prover (no dynamic checks needed),
3. functional simulation on the engine ``make_simulator`` chooses,
4. compiled-RTL cross-check under randomized IO stalls,
5. hardware runtime-check instrumentation,
6. a full-system run through simulated DRAM and the memory controllers.

Run with:

    python examples/verification_workflow.py
"""

import random

from repro.apps.string_search import AhoCorasick, string_search_unit
from repro.compiler import UnitTestbench, compile_unit
from repro.interp import make_simulator
from repro.lang import prove_program
from repro.rtl import RtlSimulator
from repro.system import run_full_system, split_arbitrary

PATTERNS = [b"ERROR", b"WARN", b"panic", b"timeout"]


def make_log(rnd, nbytes):
    words = ["service", "ok", "request", "served", "cache", "hit"]
    events = ["ERROR disk", "WARN retry", "panic: oom", "timeout on db"]
    out = bytearray()
    while len(out) < nbytes:
        if rnd.random() < 0.1:
            out += rnd.choice(events).encode()
        else:
            out += rnd.choice(words).encode()
        out += b" "
    return bytes(out[:nbytes])


def main():
    rnd = random.Random(99)
    automaton = AhoCorasick(PATTERNS)
    unit = string_search_unit()
    header = automaton.encode_header()
    print(f"unit: {unit}; automaton: {automaton.n_states} states, "
          f"{len(automaton.table_entries())} table entries")

    # 2. Static proof: every potentially conflicting access pair proven
    #    mutually exclusive, so dynamic checks are not needed.
    report = prove_program(unit)
    assert report.ok
    print("static prover: all restriction pairs proven exclusive")

    # 3. Functional simulation. make_simulator picks the certified
    #    compiled engine, which skips the dynamic checks the proof above
    #    rules out; an uncertified unit runs on the checking interpreter.
    log = make_log(rnd, 3000)
    stream = list(header + log)
    sim = make_simulator(unit)
    hits = sim.run(stream)
    print(f"functional sim: {len(hits)} pattern hits in {len(log)} bytes")

    # 4. RTL cross-check under randomized stalls.
    stall_rnd = random.Random(1)
    outputs, cycles = UnitTestbench(unit).run(
        stream,
        input_stall=lambda c: stall_rnd.random() < 0.25,
        output_stall=lambda c: stall_rnd.random() < 0.25,
    )
    assert outputs == hits
    print(f"RTL cross-check under stalls: identical output "
          f"({cycles} cycles)")

    # 5. Runtime-check instrumentation: the sticky error flag stays low
    #    for a proven-clean unit.
    checked = compile_unit(unit, insert_runtime_checks=True)
    rtl = RtlSimulator(checked)
    index = 0
    for _ in range(5 * len(stream)):
        rtl.set_inputs(
            input_token=stream[index] if index < len(stream) else 0,
            input_valid=1 if index < len(stream) else 0,
            input_finished=1 if index >= len(stream) else 0,
            output_ready=1,
        )
        outs = rtl.outputs()
        assert outs["restriction_error"] == 0
        if outs["output_finished"]:
            break
        if outs["input_ready"] and index < len(stream):
            index += 1
        rtl.clock_edge()
    print("hardware runtime checks: restriction_error never latched")

    # 6. Full system: split the log across PUs, run through simulated
    #    DRAM + controllers, resolve matches host-side.
    big_log = make_log(rnd, 12_000)
    overlap = max(len(p) for p in PATTERNS) - 1
    streams = split_arbitrary(big_log, 4, overlap=overlap)
    result = run_full_system(unit, streams, header=header)
    total = sum(len(out) for out in result.outputs)
    print(f"full system: {len(streams)} PUs, {total} hits, "
          f"{result.cycles} cycles end to end")
    # host-side: resolve which patterns matched in stream 0
    sample = result.outputs[0][:5]
    resolved = [
        (index, [PATTERNS[p].decode()
                 for p in automaton.resolve(streams[0], index)])
        for index in sample
    ]
    print("first resolved matches:", resolved)


if __name__ == "__main__":
    main()
