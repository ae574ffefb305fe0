"""The guards the compiler reads from a program's sites: loop guards,
assignment, read, write and emit guards."""

from repro.lang import UnitBuilder


def build_histogram_like():
    b = UnitBuilder("h", input_width=8, output_width=8)
    counter = b.reg("counter", width=7)
    freqs = b.bram("freqs", elements=256, width=8)
    idx = b.reg("idx", width=9)
    with b.when(counter == 100):
        with b.while_(idx < 256):
            b.emit(freqs[idx])
            freqs[idx] = 0
            idx.set(idx + 1)
        idx.set(0)
    freqs[b.input] = freqs[b.input] + 1
    counter.set(b.mux(counter == 100, 1, counter + 1))
    return b.finish()


def test_loop_guard_includes_enclosing_condition():
    unit = build_histogram_like()
    sites = unit.sites
    assert len(sites.loops) == 1
    loop = sites.loops[0]
    # both the if condition and the while condition, positively
    assert len(loop.loop_guard) == 2
    assert all(positive for _, positive in loop.loop_guard)
    assert not loop.needs_while_done


def test_loop_body_statements_do_not_need_while_done():
    unit = build_histogram_like()
    idx = next(r for r in unit.regs if r.name == "idx")
    guards = unit.sites.reg_assigns[idx]
    # first assignment: inside the loop; second: after it
    assert not guards[0].needs_while_done
    assert guards[1].needs_while_done


def test_reads_collected_with_guards():
    unit = build_histogram_like()
    freqs = unit.brams[0]
    reads = unit.sites.reads[freqs]
    assert len(reads) == 2  # emit value and increment value
    loop_read, incr_read = reads
    assert not loop_read.needs_while_done
    assert incr_read.needs_while_done


def test_writes_collected():
    unit = build_histogram_like()
    freqs = unit.brams[0]
    assert len(unit.sites.writes[freqs]) == 2


def test_emit_guard_matches_loop():
    unit = build_histogram_like()
    assert len(unit.sites.emits) == 1
    emit = unit.sites.emits[0]
    assert len(emit.guard) == 2  # if cond + loop cond


def test_elif_arms_negate_previous_conditions():
    b = UnitBuilder("e", input_width=8, output_width=8)
    r = b.reg("r", width=8)
    with b.when(b.input == 0):
        r.set(1)
    with b.elif_(b.input == 1):
        r.set(2)
    with b.otherwise():
        r.set(3)
    unit = b.finish()
    reg = unit.regs[0]
    guards = [site.guard for site in unit.sites.reg_assigns[reg]]
    assert [len(g) for g in guards] == [1, 2, 2]
    # second arm: NOT(first cond) AND (second cond)
    assert [p for _, p in guards[1]] == [False, True]
    # else arm: both negated
    assert [p for _, p in guards[2]] == [False, False]


def test_reads_in_conditions_guarded_by_path_only():
    b = UnitBuilder("c", input_width=8, output_width=8)
    m = b.bram("m", elements=16, width=8)
    r = b.reg("r", width=8)
    s = b.reg("s", width=1)
    with b.when(s == 1):
        with b.when(m[0] > 4):
            r.set(1)
    unit = b.finish()
    read = unit.sites.reads[unit.brams[0]][0]
    assert len(read.guard) == 1  # only the outer s == 1
    assert not read.needs_while_done
